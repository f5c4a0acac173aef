package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// figureDigest runs experiment id under Quick and returns the SHA-256,
// in hex, of Fprint over every figure it returns.
func figureDigest(t *testing.T, id string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	figs, err := e.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	for _, f := range figs {
		if err := Fprint(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkFigureDigests runs each experiment of want as a parallel subtest
// and compares its figure digest.
func checkFigureDigests(t *testing.T, want map[string]string) {
	for id, digest := range want {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if got := figureDigest(t, id); got != digest {
				t.Errorf("%s: figure digest %s, want %s", id, got, digest)
			}
		})
	}
}

// TestKeytreeFiguresGolden pins, under Quick, the printed figures of the
// experiments that run the key tree and assignment alone (no transport):
// SHA-256 over Fprint of every figure each one returns. A change to the
// marking, key generation, emission or needs walk that moves a single
// count changes a digest.
func TestKeytreeFiguresGolden(t *testing.T) {
	checkFigureDigests(t, map[string]string{
		"f6-enc-grid":           "a92637d39d496c809f8fa9f39e50eb655f01c3baa395ee81860bf08cf4257ef0",
		"f6-enc-vs-n":           "8c5bcfe6e0bb712b704c56cc1d0c5197229314024978d7844b2bb0ffb0f3f619",
		"f7-dup-grid":           "d89ab25120073f6acdc5c945ba5406d76a8d3ec3d470eb88a29f999a7ab38a14",
		"f7-dup-vs-n":           "dd9664082288af13e6317879427fd04e0ee6af51600dd5f008898ad8239c2504",
		"a-degree-sweep":        "b0bb917c4adb2ed8c2809ea814d2746b47cad08d1971e51a5ae7f56d9ccec7a2",
		"a-enc-analysis":        "886eb55d2cb927dfb4deed48b758ed2b2873ba86dec8e999854bfd7fce16bec0",
		"a-batch-vs-individual": "3a32e4591806af4165699c813ff77a932b734dedc31368bb04315067470fa36c",
		"abl-uka-baseline":      "12a70b37fbb01fd72e74bc5951fc4e6bc9c2edd3b67b9e7752ea9888c4ff15d6",
	})
}
