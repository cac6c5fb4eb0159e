package isa

// Memory is a sparse, page-granular byte-addressable memory for the
// functional executor. Reads of untouched memory return zeros.
type Memory struct {
	pages map[uint64]*page
}

const pageShift = 12 // 4 KiB pages
const pageSize = 1 << pageShift

type page [pageSize]byte

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new(page)
		m.pages[pn] = p
	}
	return p
}

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint64, v byte) {
	p := m.pageFor(addr, true)
	p[addr&(pageSize-1)] = v
}

// Read reads n little-endian bytes into a uint64 (n <= 8). An access inside
// one page costs one page lookup; only a page-crossing access goes byte by
// byte.
func (m *Memory) Read(addr uint64, n int) uint64 {
	var v uint64
	if n <= 0 {
		return 0
	}
	if off := int(addr & (pageSize - 1)); off+n <= pageSize {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		for i, b := range p[off : off+n] {
			v |= uint64(b) << (8 * i)
		}
		return v
	}
	for i := 0; i < n; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes the low n bytes of v little-endian (n <= 8), with the same
// one-lookup fast path as Read.
func (m *Memory) Write(addr uint64, v uint64, n int) {
	if n <= 0 {
		return
	}
	if off := int(addr & (pageSize - 1)); off+n <= pageSize {
		p := m.pageFor(addr, true)
		for i := range p[off : off+n] {
			p[off+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < n; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Read128 reads a 16-byte quantity as two uint64 words.
func (m *Memory) Read128(addr uint64) [2]uint64 {
	return [2]uint64{m.Read(addr, 8), m.Read(addr+8, 8)}
}

// Write128 writes a 16-byte quantity.
func (m *Memory) Write128(addr uint64, v [2]uint64) {
	m.Write(addr, v[0], 8)
	m.Write(addr+8, v[1], 8)
}

// LoadImage copies an initial memory image a page-sized chunk at a time. It
// creates every page the image touches, so Pages and Hash see the same
// footprint as byte-by-byte stores would.
func (m *Memory) LoadImage(img map[uint64][]byte) {
	for addr, data := range img {
		for len(data) > 0 {
			n := copy(m.pageFor(addr, true)[addr&(pageSize-1):], data)
			data = data[n:]
			addr += uint64(n)
		}
	}
}

// Pages reports the number of touched pages (footprint diagnostics).
func (m *Memory) Pages() int { return len(m.pages) }

// Reset zeroes every touched page in place instead of dropping the page map:
// a re-run over the same footprint then allocates nothing. Observable
// contents (reads, Hash) are identical to a fresh memory — Hash already
// treats all-zero pages as untouched — though Pages may over-report until
// the footprint is re-touched.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
	}
}

// Hash returns an order-independent FNV-style digest of the memory contents.
// Untouched and all-zero pages hash identically (reads of untouched memory
// return zeros), so two memories with equal observable contents have equal
// hashes — the property the fault-injection engine's silent-data-corruption
// check relies on.
func (m *Memory) Hash() uint64 {
	var h uint64
	for pn, p := range m.pages {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		ph := uint64(offset64)
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
			}
			ph = (ph ^ uint64(b)) * prime64
		}
		if zero {
			continue // indistinguishable from an untouched page
		}
		// Commutative combine keeps the digest independent of map order.
		x := pn*0x9E3779B97F4A7C15 ^ ph
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		h ^= x ^ x>>31
	}
	return h
}
