package keytree

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"repro/internal/keys"
)

// searchLookup is the lookup the rank index replaced, kept as its
// oracle: it reads nothing but Encryptions and the degree. Levels run
// deepest first and IDs ascend within one, so "ID below the level's end"
// and "ID below the level's start" are both monotone over the array:
// two binary searches bound the level's run, a third finds id in it.
func searchLookup(r *BatchResult, id int) (int, bool) {
	if id < 0 {
		return 0, false
	}
	lo, width := 0, 1 // node-ID bounds of id's level: [lo, lo+width)
	for id >= lo+width {
		lo, width = lo+width, width*r.d
	}
	encs := r.Encryptions
	start := sort.Search(len(encs), func(i int) bool { return int(encs[i].ID) < lo+width })
	end := sort.Search(len(encs), func(i int) bool { return int(encs[i].ID) < lo })
	run := encs[start:end]
	i := sort.Search(len(run), func(j int) bool { return run[j].ID >= uint32(id) })
	if i < len(run) && run[i].ID == uint32(id) {
		return start + i, true
	}
	return 0, false
}

// TestLookupMatchesSearchOracle holds the rank index to the binary
// search it replaced, for every ID from -1 to one past the tree, over
// random batches of every shape -- join-only, leave-only, replace and
// mixed, small enough that some levels emit nothing -- at four degrees.
func TestLookupMatchesSearchOracle(t *testing.T) {
	shapes := []string{"join", "leave", "replace", "mixed", "one-leave"}
	for _, d := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			tr := New(d, keys.NewDeterministicGenerator(uint64(d)))
			rng := rand.New(rand.NewPCG(uint64(d), 9))
			var present []Member
			next := Member(0)
			join := func(n int) []Member {
				js := make([]Member, n)
				for i := range js {
					js[i], next = next, next+1
				}
				return js
			}
			leave := func(n int) []Member {
				n = min(n, len(present))
				rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
				ls := append([]Member(nil), present[:n]...)
				present = present[n:]
				return ls
			}
			quiet := 0 // batches with a level below the root that emits nothing
			for b := 0; b < 40; b++ {
				var joins, leaves []Member
				switch shape := shapes[b%len(shapes)]; {
				case b == 0:
					joins = join(50 + rng.IntN(300))
				case shape == "join":
					joins = join(1 + rng.IntN(60))
				case shape == "leave":
					leaves = leave(1 + rng.IntN(60))
				case shape == "replace":
					n := 1 + rng.IntN(40)
					leaves, joins = leave(n), join(n)
				case shape == "mixed":
					leaves, joins = leave(rng.IntN(50)), join(rng.IntN(50))
				default:
					leaves = leave(1)
				}
				res, err := tr.ProcessBatch(joins, leaves)
				if err != nil {
					t.Fatal(err)
				}
				present = append(present, joins...)
				if len(res.Encryptions) > 0 && len(res.levels) < tr.height {
					quiet++
				}
				for id := -1; id <= len(tr.nodes); id++ {
					gi, gok := res.lookup(id)
					wi, wok := searchLookup(res, id)
					if gi != wi || gok != wok {
						t.Fatalf("batch %d, id %d: lookup = (%d, %v), oracle (%d, %v)", b, id, gi, gok, wi, wok)
					}
				}
			}
			if quiet == 0 {
				t.Error("no batch left a level below the root without encryptions")
			}
		})
	}
}
