package runner

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCachedJSONConcurrentCallersComputeOnce(t *testing.T) {
	r := New(2)
	var calls atomic.Int32
	release := make(chan struct{})
	compute := func() ([]int, error) {
		calls.Add(1)
		<-release
		return []int{1, 2, 3}, nil
	}
	const callers = 8
	got := make([][]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = CachedJSON(r, "kind", "fp", compute)
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times for %d concurrent callers, want 1", n, callers)
	}
	for i := range got {
		if errs[i] != nil || len(got[i]) != 3 || &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d: %v, %v — want the one shared value", i, got[i], errs[i])
		}
	}
	// A later caller is served from the memo; a different fingerprint or
	// kind is a different artifact.
	if _, err := CachedJSON(r, "kind", "fp", compute); err != nil || calls.Load() != 1 {
		t.Errorf("memo miss after completion: calls %d err %v", calls.Load(), err)
	}
	if _, err := CachedJSON(r, "kind", "fp2", compute); err != nil || calls.Load() != 2 {
		t.Errorf("distinct fingerprint shared an artifact: calls %d err %v", calls.Load(), err)
	}
	if _, err := CachedJSON(r, "kind2", "fp", compute); err != nil || calls.Load() != 3 {
		t.Errorf("distinct kind shared an artifact: calls %d err %v", calls.Load(), err)
	}
	// The memo is per runner.
	if _, err := CachedJSON(New(1), "kind", "fp", compute); err != nil || calls.Load() != 4 {
		t.Errorf("fresh runner served another runner's artifact: calls %d err %v", calls.Load(), err)
	}
}

func TestCachedJSONDoesNotKeepErrors(t *testing.T) {
	r := New(1)
	boom := errors.New("boom")
	calls := 0
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := CachedJSON(r, "k", "fp", compute); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v, want boom", err)
	}
	v, err := CachedJSON(r, "k", "fp", compute)
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("after an error: v=%d err=%v calls=%d, want a recomputed 42", v, err, calls)
	}
	if v, _ := CachedJSON(r, "k", "fp", compute); v != 42 || calls != 2 {
		t.Errorf("success not memoized: v=%d calls=%d", v, calls)
	}
}

func TestCachedJSONPanicSettlesTheSlot(t *testing.T) {
	r := New(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute panic was swallowed")
			}
		}()
		_, _ = CachedJSON(r, "k", "fp", func() (int, error) { panic("compute failed") })
	}()
	v, err := CachedJSON(r, "k", "fp", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("after a panicked compute: v=%d err=%v, want a recomputed 7", v, err)
	}
}

func TestCachedJSONNilRunnerComputesEachCall(t *testing.T) {
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := CachedJSON[int](nil, "k", "fp", func() (int, error) { calls++; return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("nil runner computed %d times, want 2", calls)
	}
}

func TestCachedJSONMemoSitsAboveDisk(t *testing.T) {
	dir := t.TempDir()
	compute := func() (string, error) { return "artifact", nil }
	cold := New(1)
	if err := cold.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, err := CachedJSON(cold, "k", "fp", compute); err != nil || v != "artifact" {
			t.Fatalf("cold call %d: %q %v", i, v, err)
		}
	}
	if st := cold.Stats(); st.DiskMisses != 1 || st.DiskHits != 0 {
		t.Errorf("cold runner: disk misses %d hits %d, want one lookup (1/0)", st.DiskMisses, st.DiskHits)
	}
	warm := New(1)
	if err := warm.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := CachedJSON(warm, "k", "fp", func() (string, error) {
			t.Error("warm runner recomputed a persisted artifact")
			return "", nil
		})
		if err != nil || v != "artifact" {
			t.Fatalf("warm call %d: %q %v", i, v, err)
		}
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Errorf("warm runner: disk hits %d misses %d, want one read (1/0)", st.DiskHits, st.DiskMisses)
	}
}
