package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"power10sim/internal/workloads"
)

// The blob cache generalizes the per-Request caches to any expensive
// deterministic derived artifact: the epoch-collection corpus behind the
// power-model figures, greedy counter-selection fits, the APEX core-vs-chip
// points. Those computations run simulations outside the Request shape (epoch
// callbacks, paired model variants), so the result cache alone cannot dedupe
// them. Like results, artifacts have two tiers: an in-process memo (one
// computation per runner, so Figs. 11, 12 and 15 collect their shared corpus
// once per sweep) and, with a cache directory, content-keyed files that let a
// warm sweep skip them across processes. The soundness argument is the same:
// every computation cached here is a pure function of the fingerprinted
// inputs (the whole sweep is covered by a determinism regression test), so a
// content hit may substitute for recomputation without changing one reported
// byte.

// blobEntry is one in-process artifact slot: the first caller computes and
// closes ready; concurrent callers for the same artifact wait on it.
type blobEntry struct {
	ready chan struct{}
	val   any
	err   error
}

// blobEnvelope wraps a stored artifact with enough identity to reject a
// foreign or stale file (the binding identity is the file name; the envelope
// is defense in depth against hand-edited cache directories).
type blobEnvelope[T any] struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Value  T      `json:"value"`
}

// WorkloadFingerprint returns a content fingerprint for a workload suitable
// for blob-cache keys: two independently built workloads with identical
// generator output share it, mirroring how Request keys collapse rebuilt
// programs.
func WorkloadFingerprint(w *workloads.Workload) string {
	if w == nil || w.Prog == nil {
		return "nil"
	}
	return fmt.Sprintf("%s|%d|%#x|%d|%d",
		w.Name, len(w.Prog.Code), fingerprint(w.Prog), w.Budget, w.Warmup)
}

// CachedJSON memoizes a deterministic computation per runner and, when a
// cache directory is set, in the runner's persistent cache directory. kind
// namespaces the artifact; fp must fingerprint every input the computation
// depends on (configs via %#v, workloads via WorkloadFingerprint, plus all
// scalar parameters). Concurrent callers for one (kind, fp) share a single
// computation, and every later caller on the same runner receives the same
// value — callers must treat it as read-only. Errors are returned to the
// callers waiting on that computation but never kept, so the next call
// recomputes. A nil runner degenerates to compute(). Marshal or write
// failures fall back to the computed value; corrupt entries read as misses
// and are rewritten.
func CachedJSON[T any](r *Runner, kind, fp string, compute func() (T, error)) (T, error) {
	if r == nil {
		return compute()
	}
	k := kind + "|" + fp
	r.mu.Lock()
	if r.blobs == nil {
		r.blobs = map[string]*blobEntry{}
	}
	e, hit := r.blobs[k]
	if !hit {
		e = &blobEntry{ready: make(chan struct{})}
		r.blobs[k] = e
	}
	r.mu.Unlock()
	if hit {
		<-e.ready
		if e.err != nil {
			var zero T
			return zero, e.err
		}
		return e.val.(T), nil
	}
	// The slot is settled even if compute panics, so waiters never hang and
	// the failed computation is not kept.
	e.err = errBlobAborted
	defer func() {
		if e.err != nil {
			r.mu.Lock()
			delete(r.blobs, k)
			r.mu.Unlock()
		}
		close(e.ready)
	}()
	v, err := diskCachedJSON(r, kind, fp, compute)
	e.val, e.err = v, err
	return v, err
}

// errBlobAborted is what waiters see when the computation they coalesced onto
// panicked instead of returning.
var errBlobAborted = errors.New("runner: artifact computation aborted")

// diskCachedJSON is CachedJSON's persistent tier: with no cache directory it
// is compute().
func diskCachedJSON[T any](r *Runner, kind, fp string, compute func() (T, error)) (T, error) {
	var zero T
	if r.cacheDir == "" {
		return compute()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|blob|%s|%s", diskSchema, kind, fp)
	path := filepath.Join(r.cacheDir, hex.EncodeToString(h.Sum(nil))+".json")
	if data, err := os.ReadFile(path); err == nil {
		var env blobEnvelope[T]
		if err := json.Unmarshal(data, &env); err == nil &&
			env.Schema == diskSchema && env.Kind == kind {
			r.mu.Lock()
			r.stats.DiskHits++
			r.stats.DiskReadBytes += uint64(len(data))
			r.mu.Unlock()
			r.obs.diskHits.Inc()
			r.obs.diskReadBytes.Add(uint64(len(data)))
			return env.Value, nil
		}
		r.diskMiss(uint64(len(data)))
	} else {
		r.diskMiss(0)
	}
	v, err := compute()
	if err != nil {
		return zero, err
	}
	data, err := json.Marshal(&blobEnvelope[T]{Schema: diskSchema, Kind: kind, Value: v})
	if err != nil {
		return v, nil
	}
	if err := writeFileAtomic(path, data); err != nil {
		return v, nil
	}
	r.mu.Lock()
	r.stats.DiskWrittenBytes += uint64(len(data))
	r.mu.Unlock()
	r.obs.diskWrittenBytes.Add(uint64(len(data)))
	return v, nil
}
