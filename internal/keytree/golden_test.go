package keytree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/keys"
)

// The golden suite pins the marking algorithm's observable output --
// every encryption ID and ciphertext byte, MaxKID, group key, user IDs
// and update counts, across both the parallel and sequential pipelines
// -- as SHA-256 digests over deterministic schedules. The digests in
// testdata/golden_paper_marking.json were generated from the original
// monolithic ProcessBatch, and every restructuring of the marking since
// has had to reproduce them byte for byte.
//
// Regenerate (only when an intentional output change is made) with:
//
//	go test ./internal/keytree -run TestPaperMarkingGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_paper_marking.json from the current implementation")

const goldenFile = "testdata/golden_paper_marking.json"

// goldenHasher folds one pipeline's observable batch outputs into a
// running SHA-256.
type goldenHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: sha256.New()} }

func (g *goldenHasher) writeInt(v int) {
	binary.LittleEndian.PutUint64(g.buf[:], uint64(int64(v)))
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) batch(res *BatchResult, err error) {
	if err != nil {
		g.h.Write([]byte("E"))
		g.h.Write([]byte(err.Error()))
		return
	}
	g.h.Write([]byte("B"))
	g.writeInt(res.MaxKID)
	g.h.Write(res.GroupKey[:])
	g.writeInt(len(res.UserIDs))
	for _, id := range res.UserIDs {
		g.writeInt(id)
	}
	g.writeInt(res.Joined)
	g.writeInt(res.Left)
	g.writeInt(res.UpdatedKNodes)
	g.writeInt(len(res.Encryptions))
	for i := range res.Encryptions {
		g.writeInt(int(res.Encryptions[i].ID))
		g.h.Write(res.Encryptions[i].Wrapped[:])
	}
	// Fold in every user's needed-encryption view: this pins the level
	// segment index (lookup) behaviour, not just the flat slice.
	for _, uid := range res.UserIDs {
		for _, eid := range res.UserNeedIDs(uid) {
			g.writeInt(int(eid))
		}
		g.writeInt(-1)
	}
}

func (g *goldenHasher) sum() string { return fmt.Sprintf("%x", g.h.Sum(nil)) }

// goldenCase drives one schedule: emit is called with successive
// batches; live and mint let the schedule react to the tree's current
// membership exactly the way the fuzz scripts do.
type goldenCase struct {
	name    string
	d       int
	workers int
	seed    uint64
	run     func(step func(joins, leaves []Member), live func() []Member)
}

// goldenDigest replays one case through a parallel-pipeline tree and a
// sequential-reference tree and returns the combined digest. The two
// trees are driven from independent deterministic generators with the
// same seed (a shared generator would interleave the streams).
func goldenDigest(t *testing.T, gc goldenCase) string {
	t.Helper()
	par := New(gc.d, keys.NewDeterministicGenerator(gc.seed), WithWorkers(gc.workers))
	seq := New(gc.d, keys.NewDeterministicGenerator(gc.seed))
	gh := newGoldenHasher()
	step := func(joins, leaves []Member) {
		rp, errP := par.ProcessBatch(joins, leaves)
		rs, errS := seq.ProcessBatchSeq(joins, leaves)
		gh.batch(rp, errP)
		gh.batch(rs, errS)
		if errP == nil {
			if err := par.CheckInvariant(); err != nil {
				t.Fatalf("%s: parallel invariant: %v", gc.name, err)
			}
			if err := seq.CheckInvariant(); err != nil {
				t.Fatalf("%s: sequential invariant: %v", gc.name, err)
			}
		}
	}
	gc.run(step, par.Members)
	return gh.sum()
}

// corpusCases builds one golden case per checked-in fuzz corpus entry,
// replayed through the shared fuzzScript decoder.
func corpusCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, dir := range []string{
		"testdata/fuzz/FuzzMarkingAdversarial",
		"testdata/fuzz/FuzzMarkingScript",
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading corpus dir %s: %v", dir, err)
		}
		for _, e := range entries {
			data := readCorpusEntry(t, filepath.Join(dir, e.Name()))
			script, ok := parseFuzzScript(data)
			if !ok {
				continue
			}
			cases = append(cases, goldenCase{
				name: "corpus/" + filepath.Base(dir) + "/" + e.Name(),
				d:    script.d, workers: 3, seed: script.seed,
				run: func(step func(joins, leaves []Member), live func() []Member) {
					boot := make([]Member, script.base)
					for i := range boot {
						boot[i] = Member(i)
					}
					step(boot, nil)
					next := Member(script.base)
					for r := 0; r < script.rounds(); r++ {
						joins, leaves := script.churn(r, live(), &next)
						if len(joins) == 0 && len(leaves) == 0 {
							continue
						}
						step(joins, leaves)
					}
				},
			})
		}
	}
	return cases
}

// readCorpusEntry parses one "go test fuzz v1" corpus file holding a
// single []byte argument.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a v1 corpus file with one argument", path)
	}
	arg := strings.TrimSpace(lines[1])
	arg = strings.TrimPrefix(arg, "[]byte(")
	arg = strings.TrimSuffix(arg, ")")
	s, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: unquoting corpus bytes: %v", path, err)
	}
	return []byte(s)
}

// randomCase mirrors the diff_test random schedule: batches of up to
// maxJoin joins and uniformly-sized shuffled leave sets.
func randomCase(name string, d, workers int, seed uint64, batches, maxJoin int) goldenCase {
	return goldenCase{
		name: name, d: d, workers: workers, seed: seed,
		run: func(step func(joins, leaves []Member), live func() []Member) {
			rng := rand.New(rand.NewPCG(seed, 77))
			next := Member(0)
			var present []Member
			for b := 0; b < batches; b++ {
				nJoin := rng.IntN(maxJoin)
				nLeave := 0
				if len(present) > 0 {
					nLeave = rng.IntN(len(present) + 1)
				}
				joins := make([]Member, nJoin)
				for i := range joins {
					joins[i] = next
					next++
				}
				rng.Shuffle(len(present), func(i, j int) {
					present[i], present[j] = present[j], present[i]
				})
				leaves := append([]Member(nil), present[:nLeave]...)
				step(joins, leaves)
				present = append(present[nLeave:], joins...)
			}
		},
	}
}

// edgeCase pins the shapes random walks may miss: empty batches, total
// departure, prune cascades, single-member regrowth and error paths.
func edgeCase() goldenCase {
	return goldenCase{
		name: "edges", d: 4, workers: 0, seed: 42,
		run: func(step func(joins, leaves []Member), live func() []Member) {
			step(nil, nil)
			joins := make([]Member, 64)
			for i := range joins {
				joins[i] = Member(i)
			}
			step(joins, nil)
			step(nil, nil)
			step([]Member{100, 101, 102}, []Member{0, 1, 2})
			var leaves []Member
			for i := 3; i < 48; i++ {
				leaves = append(leaves, Member(i))
			}
			step([]Member{200}, leaves)
			all := append([]Member(nil), live()...)
			step(nil, all)
			for i := 0; i < 5; i++ {
				step([]Member{Member(300 + i)}, nil)
			}
			step([]Member{300}, nil)      // already present
			step(nil, []Member{999})      // unknown leave
			step([]Member{400, 400}, nil) // duplicate join
			step(nil, []Member{301, 301}) // duplicate leave
		},
	}
}

// adversarialCase grows a large group then tears strided fractions out
// of it, exercising deep trees, split cascades and wide rekey subtrees.
func adversarialCase(name string, d, workers, base int, seed uint64) goldenCase {
	return goldenCase{
		name: name, d: d, workers: workers, seed: seed,
		run: func(step func(joins, leaves []Member), live func() []Member) {
			boot := make([]Member, base)
			for i := range boot {
				boot[i] = Member(i)
			}
			step(boot, nil)
			next := Member(base)
			for _, frac := range []int{4, 3, 2} { // leave 1/4, then 1/3, then 1/2
				ms := live()
				nl := len(ms) / frac
				stride := float64(len(ms)) / float64(nl)
				leaves := make([]Member, nl)
				for j := 0; j < nl; j++ {
					leaves[j] = ms[int(float64(j)*stride)]
				}
				joins := make([]Member, nl/2)
				for i := range joins {
					joins[i] = next
					next++
				}
				step(joins, leaves)
			}
			regrow := make([]Member, base)
			for i := range regrow {
				regrow[i] = next
				next++
			}
			step(regrow, nil)
		},
	}
}

func goldenCases(t *testing.T) []goldenCase {
	cases := corpusCases(t)
	cases = append(cases,
		randomCase("rand/d2", 2, 0, 101, 25, 40),
		randomCase("rand/d3-w2", 3, 2, 102, 25, 40),
		randomCase("rand/d4", 4, 0, 103, 25, 40),
		randomCase("rand/d4-w3", 4, 3, 104, 25, 40),
		randomCase("rand/d5-w8", 5, 8, 105, 25, 40),
		randomCase("rand/d4-heavy", 4, 4, 777, 12, 300),
		edgeCase(),
		adversarialCase("adv/d4-3k", 4, 0, 3000, 2024),
		adversarialCase("adv/d2-800", 2, 6, 800, 7),
	)
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	return cases
}

// TestPaperMarkingGolden proves the marking algorithm reproduces the
// original ProcessBatch/ProcessBatchSeq output byte for byte.
func TestPaperMarkingGolden(t *testing.T) {
	got := make(map[string]string)
	for _, gc := range goldenCases(t) {
		got[gc.name] = goldenDigest(t, gc)
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenFile)
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, suite ran %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden case %q no longer runs", name)
			continue
		}
		if g != w {
			t.Errorf("case %q: output diverged from the original marking algorithm:\n  got  %s\n  want %s", name, g, w)
		}
	}
}
