package isa

import (
	"math/rand"
	"strings"
	"testing"
)

// refLoad is the byte-at-a-time image load LoadImage must match.
func refLoad(img map[uint64][]byte) *Memory {
	m := NewMemory()
	for addr, data := range img {
		for i, b := range data {
			m.SetByte(addr+uint64(i), b)
		}
	}
	return m
}

// refRead and refWrite are the per-byte access paths Read and Write must
// match.
func refRead(m *Memory, addr uint64, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

func refWrite(m *Memory, addr uint64, v uint64, n int) {
	for i := 0; i < n; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// randImage builds disjoint regions that start at random page offsets and
// often span one or more page boundaries.
func randImage(rng *rand.Rand) map[uint64][]byte {
	img := map[uint64][]byte{}
	next := uint64(rng.Intn(4)) << pageShift
	for r := rng.Intn(6); r >= 0; r-- {
		addr := next + uint64(rng.Intn(pageSize))
		data := make([]byte, rng.Intn(3*pageSize))
		rng.Read(data)
		if len(data) > 0 && rng.Intn(4) == 0 {
			data[0] = 0 // zero bytes still create their page
		}
		img[addr] = data
		next = (addr + uint64(len(data)) + pageSize) &^ (pageSize - 1)
		next += uint64(rng.Intn(3)) << pageShift
	}
	return img
}

func TestLoadImageMatchesByteStores(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		img := randImage(rng)
		got, want := NewMemory(), refLoad(img)
		got.LoadImage(img)
		if got.Pages() != want.Pages() {
			t.Fatalf("trial %d: Pages() = %d, want %d", trial, got.Pages(), want.Pages())
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("trial %d: Hash() differs", trial)
		}
		for addr, data := range img {
			for a := addr - 8; a < addr+uint64(len(data))+8; a++ {
				if got.ByteAt(a) != want.ByteAt(a) {
					t.Fatalf("trial %d: ByteAt(%#x) = %#x, want %#x", trial, a, got.ByteAt(a), want.ByteAt(a))
				}
			}
		}
	}
}

func TestLoadImageAllZeroPageCreatesPage(t *testing.T) {
	m := NewMemory()
	m.LoadImage(map[uint64][]byte{pageSize - 2: make([]byte, 4), 5 * pageSize: nil})
	if m.Pages() != 2 {
		t.Errorf("Pages() = %d, want 2 (an empty region touches nothing)", m.Pages())
	}
}

// Read and Write at every offset near a page end, for every access width,
// including the top page of the address space (where a crossing access wraps
// to page 0), match the per-byte path.
func TestReadWriteNearPageEndMatchesPerByte(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bases := []uint64{0, 7 << pageShift, ^uint64(0) &^ (pageSize - 1)}
	for _, base := range bases {
		for off := uint64(pageSize - 8); off < pageSize; off++ {
			for _, n := range []int{1, 4, 8, 16} {
				addr := base + off
				v := rng.Uint64()
				got, want := NewMemory(), NewMemory()
				got.Write(addr, v, n)
				refWrite(want, addr, v, n)
				if got.Pages() != want.Pages() || got.Hash() != want.Hash() {
					t.Fatalf("Write(%#x, n=%d): pages %d hash %#x, want pages %d hash %#x",
						addr, n, got.Pages(), got.Hash(), want.Pages(), want.Hash())
				}
				for i := uint64(0); i < 24; i++ {
					if got.ByteAt(addr+i) != want.ByteAt(addr+i) {
						t.Fatalf("Write(%#x, n=%d): byte %d differs", addr, n, i)
					}
				}

				// Reads over a filled neighbourhood and over untouched memory.
				full := NewMemory()
				for i := uint64(0); i < 2*pageSize; i++ {
					full.SetByte(base+i, byte(rng.Intn(256)))
				}
				for _, m := range []*Memory{full, NewMemory()} {
					if g, w := m.Read(addr, n), refRead(m, addr, n); g != w {
						t.Fatalf("Read(%#x, n=%d) = %#x, want %#x", addr, n, g, w)
					}
				}
			}
		}
	}
}

func TestReadWriteZeroWidthTouchesNothing(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 0xff, 0)
	if m.Read(0x1000, 0) != 0 || m.Pages() != 0 {
		t.Errorf("zero-width access: read %#x, pages %d", m.Read(0x1000, 0), m.Pages())
	}
}

func TestValidateRejectsOverlappingImage(t *testing.T) {
	cases := []struct {
		name string
		mem  map[uint64][]byte
		bad  string // error substring, "" when valid
	}{
		{"disjoint", map[uint64][]byte{0x1000: make([]byte, 16), 0x1010: make([]byte, 16)}, ""},
		{"empty region inside another", map[uint64][]byte{0x1000: make([]byte, 16), 0x1008: nil}, ""},
		{"ends at 2^64", map[uint64][]byte{^uint64(0) - 7: make([]byte, 8)}, ""},
		{"overlap by one byte", map[uint64][]byte{0x1000: make([]byte, 17), 0x1010: make([]byte, 16)}, "overlap"},
		{"contained", map[uint64][]byte{0x1000: make([]byte, 64), 0x1020: make([]byte, 4)}, "overlap"},
		{"wraps past 2^64", map[uint64][]byte{^uint64(0) - 7: make([]byte, 9)}, "wraps"},
	}
	for _, c := range cases {
		p := &Program{Name: c.name, Code: []Inst{{Op: OpHalt}}, InitMem: c.mem}
		err := p.Validate()
		if c.bad == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.bad)
		}
	}
}

// Outside bytes reach Program through the object decoder and the assembler;
// both must reject an image whose regions overlap.
func TestDecodeAndAssembleRejectOverlappingImage(t *testing.T) {
	src := `
.name overlap
.mem 0x2000 = 0102030405060708
.mem 0x2004 = 0a0b0c0d
	halt
`
	if _, err := Assemble(src); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("Assemble: err = %v, want overlap error", err)
	}

	// EncodeProgram validates too, so build a valid object and splice the
	// second region's address down onto the first.
	p := &Program{Name: "overlap", Code: []Inst{{Op: OpHalt}},
		InitMem: map[uint64][]byte{0x2000: {1, 2, 3, 4, 5, 6, 7, 8}}}
	obj, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProgram(obj); err != nil {
		t.Fatalf("valid object rejected: %v", err)
	}
	p.InitMem[0x3000] = []byte{9, 9}
	obj, err = EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(obj), "\x00\x30\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00")
	if at < 0 {
		t.Fatal("segment header for 0x3000 not found in object")
	}
	obj[at+1] = 0x20 // 0x3000 -> 0x2000 + 4 overlaps the first region
	obj[at] = 0x04
	if _, err := DecodeProgram(obj); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("DecodeProgram: err = %v, want overlap error", err)
	}
}
