package runlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"power10sim/internal/telemetry"
	"power10sim/internal/uarch"
)

func testRecord(i int) Record {
	return Record{
		Key:          fmt.Sprintf("%064x", i),
		Config:       "POWER10",
		Workload:     fmt.Sprintf("wl%d", i),
		SMT:          1,
		Budget:       1000,
		Tier:         TierRun,
		Attempts:     1,
		WallSeconds:  0.01,
		Cycles:       1000,
		Instructions: 800,
		CPI:          1.25,
		IPC:          0.8,
		PowerTotal:   2.5,
		EnergyTotal:  2500,
		EPI:          3.125,
	}
}

func TestAppendAndScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, err := Open(dir, Options{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	l.Instrument(reg)
	for i := 0; i < 5; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, n := l.Appended()
	if recs != 5 || n == 0 {
		t.Fatalf("Appended() = %d, %d", recs, n)
	}
	if v := reg.Counter("runlog_records_total").Value(); v != 5 {
		t.Errorf("runlog_records_total = %d, want 5", v)
	}
	if v := reg.Counter("runlog_bytes_total").Value(); v != n {
		t.Errorf("runlog_bytes_total = %d, want %d", v, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.Corrupt != 0 || st.WrongSchema != 0 || st.UnterminatedTail {
		t.Fatalf("scan stats = %+v", st)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Schema != Schema || r.Command != "test" || r.Time == "" {
			t.Errorf("record %d missing stamps: %+v", i, r)
		}
		if r.Workload != fmt.Sprintf("wl%d", i) {
			t.Errorf("record %d: workload %q", i, r.Workload)
		}
	}
}

// TestConcurrentAppends exercises the append path from many goroutines (run
// under -race via make race-obs): every record must land intact with a
// unique sequence number.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Command: "race"})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(testRecord(w*per + i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != writers*per || st.Corrupt != 0 {
		t.Fatalf("scan stats = %+v, want %d clean records", st, writers*per)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	// File order must be strictly increasing: appends are ordered under the
	// ledger mutex.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("seq not increasing in file order: %d after %d", recs[i].Seq, recs[i-1].Seq)
		}
	}
}

// TestTruncatedTailRecovery simulates a writer killed mid-append: the torn
// final line must be tolerated on read, sealed on reopen, and the next
// append must land as a clean record continuing the sequence.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Tear the tail: append half a record with no newline.
	path := filepath.Join(dir, LedgerFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"p10runlog-v1","seq":4,"key":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, st, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || !st.UnterminatedTail || st.Corrupt != 0 {
		t.Fatalf("scan stats = %+v, want 3 records + tolerated tail", st)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, st, err = ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The sealed tail becomes one corrupt interior line; the new record is
	// clean and continues the sequence after the torn one.
	if st.Records != 4 || st.Corrupt != 1 || st.UnterminatedTail {
		t.Fatalf("post-reopen stats = %+v", st)
	}
	last := recs[len(recs)-1]
	if last.Seq != 4 || last.Workload != "wl99" {
		t.Fatalf("recovered append = %+v, want seq 4", last)
	}
}

// TestCorruptInteriorLineSkipped: a scribbled line mid-file is skipped and
// counted without losing its neighbors.
func TestCorruptInteriorLineSkipped(t *testing.T) {
	recs, st, err := ScanReader(strings.NewReader(
		line(t, 1) + "not json at all\n" + line(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestSchemaVersionRejection: records from another schema generation are
// counted and never returned.
func TestSchemaVersionRejection(t *testing.T) {
	foreign := `{"schema":"p10runlog-v999","seq":7,"key":"x","config":"c","workload":"w","smt":1,"tier":"run","wall_seconds":0}` + "\n"
	recs, st, err := ScanReader(strings.NewReader(line(t, 1) + foreign + line(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.WrongSchema != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for _, r := range recs {
		if r.Schema != Schema {
			t.Fatalf("foreign record leaked: %+v", r)
		}
	}
}

// TestReopenContinuesSeqAndRecent: a fresh process continues the sequence
// and preloads the recent ring from the ledger tail.
func TestReopenContinuesSeqAndRecent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, err := Open(dir, Options{RecentCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recent := l2.Recent(10)
	if len(recent) != 3 || recent[0].Seq != 2 || recent[2].Seq != 4 {
		t.Fatalf("preloaded recent = %+v", recent)
	}
	if err := l2.Append(testRecord(5)); err != nil {
		t.Fatal(err)
	}
	recent = l2.Recent(1)
	if len(recent) != 1 || recent[0].Seq != 5 {
		t.Fatalf("seq did not continue: %+v", recent)
	}
}

func line(t *testing.T, seq uint64) string {
	t.Helper()
	r := testRecord(int(seq))
	r.Schema = Schema
	r.Seq = seq
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestNilLedgerIsOff: the nil-is-off discipline every caller relies on.
func TestNilLedgerIsOff(t *testing.T) {
	var l *Ledger
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSeries(&Series{Frames: []Frame{{}}}); err != nil {
		t.Fatal(err)
	}
	if l.SeriesEnabled() || l.Recent(5) != nil || l.Dir() != "" {
		t.Fatal("nil ledger not inert")
	}
	if r, b := l.Appended(); r != 0 || b != 0 {
		t.Fatal("nil ledger accounted appends")
	}
	if c := l.NewCapture(uarch.POWER10()); c != nil {
		t.Fatal("nil ledger produced a capture")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseReportsFailedAppends pins the ledger's one error policy: callers
// that do not check each Append (the runner's per-request records) still
// see a lost record, because Close returns the failure count and first cause.
func TestCloseReportsFailedAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	// Swap the append handle for a read-only one: every write now fails the
	// way a full or revoked disk would.
	ro, err := os.Open(filepath.Join(dir, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.f = ro
	for i := 2; i <= 3; i++ {
		if err := l.Append(testRecord(i)); err == nil {
			t.Fatal("append to a read-only handle succeeded")
		}
	}
	err = l.Close()
	if err == nil || !strings.Contains(err.Error(), "runlog: 2 append(s) failed, first: runlog: append:") {
		t.Fatalf("Close() = %v, want the two failed appends reported", err)
	}
	if recs, _ := l.Appended(); recs != 1 {
		t.Errorf("Appended() = %d records, want 1", recs)
	}
}

// TestSeriesCaptureDecimation drives a capture far past its frame budget
// and asserts the bound holds, widths double, and the totals (instructions,
// energy) are preserved exactly by merging.
func TestSeriesCaptureDecimation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SeriesFrames: 16, SeriesEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cap := l.NewCapture(uarch.POWER10())
	if cap == nil {
		t.Fatal("recorder enabled but no capture")
	}
	const windows = 100 // >> 16 frames: forces three halvings
	var wantInsts uint64
	for i := 1; i <= windows; i++ {
		var d uarch.Activity
		d.Cycles = 100
		d.Instructions = uint64(i)
		wantInsts += uint64(i)
		cap.observe(uarch.CycleSample{Cycle: uint64(i * 100), Delta: d})
	}
	s := cap.Finish("k", "POWER10", "wl", 1)
	if s == nil || len(s.Frames) == 0 || len(s.Frames) > 16 {
		t.Fatalf("frames = %v", s)
	}
	if s.FrameCycles != 800 { // 100 windows -> width 8 base windows of 100 cycles
		t.Errorf("FrameCycles = %d, want 800", s.FrameCycles)
	}
	var gotInsts float64
	for _, f := range s.Frames {
		gotInsts += f.IPC * float64(f.Cycles)
	}
	if d := gotInsts - float64(wantInsts); d > 1e-6 || d < -1e-6 {
		t.Errorf("instructions not preserved by decimation: got %.3f want %d", gotInsts, wantInsts)
	}
	if err := l.AppendSeries(s); err != nil {
		t.Fatal(err)
	}
	series, st, err := ScanSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || len(series) != 1 || series[0].Key != "k" {
		t.Fatalf("series scan = %+v / %+v", series, st)
	}
	// Reset must discard everything for a retried attempt.
	cap.Reset()
	if got := cap.Finish("k", "c", "w", 1); got != nil {
		t.Fatalf("Finish after Reset = %+v, want nil", got)
	}
}

// TestTornTailRecoveryAtEveryOffset proves the crash-recovery contract
// exhaustively: a writer killed at ANY byte of the final record leaves a
// ledger whose intact prefix scans cleanly, and whose next appender seals the
// tear and continues the sequence. One subtlety is intentional: a tail cut
// between the closing brace and the newline is a complete record and is
// accepted, not discarded.
func TestTornTailRecoveryAtEveryOffset(t *testing.T) {
	prefix := line(t, 1) + line(t, 2)
	last := line(t, 3)
	whole := prefix + last
	for cut := 0; cut < len(last); cut++ {
		content := whole[:len(prefix)+cut]
		tailComplete := cut == len(last)-1 // only the newline is missing

		recs, st, err := ScanReader(strings.NewReader(content))
		if err != nil {
			t.Fatalf("cut %d: scan: %v", cut, err)
		}
		wantRecs := 2
		if tailComplete {
			wantRecs = 3
		}
		if st.Records != wantRecs || st.Corrupt != 0 {
			t.Fatalf("cut %d: stats = %+v, want %d records, 0 corrupt", cut, st, wantRecs)
		}
		// Any cut that leaves tail bytes is reported as unterminated — even
		// the complete-record cut, whose acceptance must not suppress the
		// sealing contract.
		wantTorn := cut > 0
		if st.UnterminatedTail != wantTorn {
			t.Fatalf("cut %d: UnterminatedTail = %v, want %v", cut, st.UnterminatedTail, wantTorn)
		}
		for i, r := range recs[:2] {
			if r.Seq != uint64(i+1) {
				t.Fatalf("cut %d: surviving record %d has seq %d", cut, i, r.Seq)
			}
		}

		// Recovery: reopen the torn ledger and append. The torn tail is
		// sealed (becoming one corrupt interior line), the new record
		// continues after the last intact sequence number, and nothing that
		// survived the crash is lost.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LedgerFile), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := l.Append(testRecord(99)); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		l.Close()
		recs, st, err = ScanDir(dir)
		if err != nil {
			t.Fatalf("cut %d: rescan: %v", cut, err)
		}
		if st.Records != wantRecs+1 || st.UnterminatedTail {
			t.Fatalf("cut %d: post-append stats = %+v, want %d records", cut, st, wantRecs+1)
		}
		wantCorrupt := 0
		if cut > 0 && !tailComplete {
			wantCorrupt = 1 // the sealed partial line
		}
		if st.Corrupt != wantCorrupt {
			t.Fatalf("cut %d: post-append corrupt = %d, want %d", cut, st.Corrupt, wantCorrupt)
		}
		got := recs[len(recs)-1]
		if got.Workload != "wl99" || got.Seq != uint64(wantRecs)+1 {
			t.Fatalf("cut %d: recovered append = seq %d wl %q, want seq %d wl99",
				cut, got.Seq, got.Workload, wantRecs+1)
		}
	}
}

// FuzzScanReader drives the tolerant ledger reader with arbitrary bytes: it
// must never panic, never error on an in-memory stream, and its stats must
// stay internally consistent no matter how mangled the input is. The seed
// corpus in testdata/fuzz covers the shapes the tests above construct
// deliberately (clean ledger, torn tail, corrupt interior, foreign schema).
func FuzzScanReader(f *testing.F) {
	f.Add([]byte(fuzzLine(1) + fuzzLine(2)))
	f.Add([]byte(fuzzLine(1) + `{"schema":"p10runlog-v1","seq":2,"key":"dead`))
	f.Add([]byte(fuzzLine(1) + "not json at all\n" + fuzzLine(2)))
	f.Add([]byte(`{"schema":"p10runlog-v0","seq":1}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, st, err := ScanReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory scan errored: %v", err)
		}
		if st.Records != len(recs) {
			t.Fatalf("Records = %d but %d returned", st.Records, len(recs))
		}
		if st.Bytes != int64(len(data)) {
			t.Fatalf("Bytes = %d, want %d", st.Bytes, len(data))
		}
		if st.Records+st.Corrupt+st.WrongSchema > st.Lines {
			t.Fatalf("classified more lines than seen: %+v", st)
		}
		if st.UnterminatedTail && len(data) > 0 && data[len(data)-1] == '\n' {
			t.Fatal("UnterminatedTail on newline-terminated input")
		}
		for _, r := range recs {
			if r.Schema != Schema {
				t.Fatalf("returned foreign-schema record %+v", r)
			}
		}
	})
}

// fuzzLine is line() without a testing.T, usable from fuzz seed setup.
func fuzzLine(seq uint64) string {
	r := testRecord(int(seq))
	r.Schema = Schema
	r.Seq = seq
	b, err := json.Marshal(&r)
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}
