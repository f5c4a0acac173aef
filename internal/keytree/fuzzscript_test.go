package keytree

// fuzzScript is the shared byte-driven batch schedule used by the
// marking fuzz targets and the golden differential suite: one compact
// byte string decodes to a tree degree, a bootstrap population and up
// to eight churn rounds whose leave sets follow adversarial patterns
// (strided, prefix, suffix, scattered). Keeping the decoder in one
// place means the checked-in corpora drive every consumer identically,
// so a corpus entry that once broke the marking algorithm keeps
// guarding it and the golden digests alike.

// fuzzScriptRounds caps the churn rounds one script replays.
const fuzzScriptRounds = 8

// fuzzScript is a decoded schedule header plus the raw round bytes.
type fuzzScript struct {
	d    int    // tree degree, 2..8
	base int    // bootstrap population, >= 2
	seed uint64 // key-generator seed, >= 1
	data []byte // round bytes: triples of (nj, pattern, nl-selector)
}

// parseFuzzScript decodes the script header; ok is false when data is
// too short to describe a run.
func parseFuzzScript(data []byte) (*fuzzScript, bool) {
	if len(data) < 3 {
		return nil, false
	}
	return &fuzzScript{
		d:    int(data[0]%7) + 2,
		base: int(data[1]) + 2,
		seed: uint64(data[2]) + 1,
		data: data[3:],
	}, true
}

// rounds returns how many churn rounds the script encodes.
func (s *fuzzScript) rounds() int {
	n := len(s.data) / 3
	if n > fuzzScriptRounds {
		n = fuzzScriptRounds
	}
	return n
}

// churn decodes round r against the current live membership: nj fresh
// joins (minted via next) and a leave set following the round's byte
// pattern. At least one member always survives.
func (s *fuzzScript) churn(r int, live []Member, next *Member) (joins, leaves []Member) {
	b := s.data[r*3 : r*3+3]
	nj := int(b[0] % 32)
	pattern := b[1] % 4
	nl := int(b[2]) % len(live) // keep >= 1 member

	leaves = make([]Member, 0, nl)
	switch pattern {
	case 0: // strided: maximally disjoint paths
		if nl > 0 {
			stride := float64(len(live)) / float64(nl)
			for j := 0; j < nl; j++ {
				leaves = append(leaves, live[int(float64(j)*stride)])
			}
		}
	case 1: // prefix: one side of the tree
		leaves = append(leaves, live[:nl]...)
	case 2: // suffix: the most recently placed region
		leaves = append(leaves, live[len(live)-nl:]...)
	default: // scattered by a byte-derived odd step
		step := int(b[1]/4)*2 + 1
		for j, idx := 0, 0; j < nl; j, idx = j+1, (idx+step)%len(live) {
			leaves = append(leaves, live[idx])
		}
		leaves = dedupMembers(leaves)
	}

	for j := 0; j < nj; j++ {
		joins = append(joins, *next)
		*next++
	}
	return joins, leaves
}
