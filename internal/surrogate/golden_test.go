package surrogate

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrainGolden pins the trained surrogate byte for byte: it trains on a
// fixed synthetic corpus, saves the model and compares the SHA-256 of the
// saved file with testdata/train.golden. A solver change that is meant to be
// output-neutral (a faster forward selection, a unified QR core) must keep
// this hash; a change that is meant to move the model regenerates the golden
// and says why.
func TestTrainGolden(t *testing.T) {
	m, err := Train(SyntheticCorpus(480, 1), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	want, err := os.ReadFile(filepath.Join("testdata", "train.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("trained model SHA-256 = %s, golden %s", got, w)
	}
}
