package keys

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// wrapOne wraps one key through a one-lane batch: the tests' single
// wrap.
func wrapOne(outer, inner Key) [WrappedSize]byte {
	var out [WrappedSize]byte
	var b WrapBatch
	b.Add(&out, &outer, &inner)
	b.Flush()
	return out
}

type tagPath struct {
	name string
	fn   func(*WrapBatch)
}

// tagPaths lists the dispatched tag path under its SHA256Kernel name and,
// where that is not already the portable one, the portable path on its
// own.
func tagPaths() []tagPath {
	paths := []tagPath{{SHA256Kernel(), tagWords}}
	if hasAVX512 {
		paths = append(paths, tagPath{"generic", tagsGeneric})
	}
	return paths
}

// refTagWord is the first word of crypto/hmac's HMAC-SHA256 of ct under
// outer: a tag path's whole output, of which the wrap keeps two bytes.
func refTagWord(outer Key, ct [KeySize]byte) uint32 {
	mac := hmac.New(sha256.New, outer[:])
	mac.Write(ct[:])
	return binary.BigEndian.Uint32(mac.Sum(nil))
}

// TestWrapBatchMatchesRefWrap wraps batches of every size from 1 to
// 16 -- a 16th Add runs the kernel itself, Flush the shorter ones --
// through one reused batch, so a short batch also runs over the stale
// lanes of the one before, and compares every lane with refWrap.
func TestWrapBatchMatchesRefWrap(t *testing.T) {
	g := NewDeterministicGenerator(103)
	var b WrapBatch
	for n := 1; n <= hashLanes; n++ {
		outers, inners := make([]Key, n), make([]Key, n)
		outs := make([][WrappedSize]byte, n)
		for i := range n {
			outers[i], inners[i] = g.MustNewKey(), g.MustNewKey()
			b.Add(&outs[i], &outers[i], &inners[i])
		}
		b.Flush()
		for i := range n {
			if want := refWrap(outers[i], inners[i]); outs[i] != want {
				t.Fatalf("batch of %d, lane %d: %x, refWrap %x", n, i, outs[i], want)
			}
		}
	}
}

// TestTagPathsMatchHMAC runs every tag path on staged batches of every
// size from 1 to 16 and compares each lane's whole tag word with
// crypto/hmac's.
func TestTagPathsMatchHMAC(t *testing.T) {
	g := NewDeterministicGenerator(104)
	for _, p := range tagPaths() {
		for n := 1; n <= hashLanes; n++ {
			var b WrapBatch
			outers, cts := make([]Key, n), make([][KeySize]byte, n)
			for i := range n {
				outers[i], cts[i] = g.MustNewKey(), [KeySize]byte(g.MustNewKey())
				b.key[i], b.ct[i] = outers[i], cts[i]
			}
			b.n = n
			p.fn(&b)
			for i := range n {
				if want := refTagWord(outers[i], cts[i]); b.tags[i] != want {
					t.Fatalf("%s, batch of %d, lane %d: tag word %08x, crypto/hmac %08x", p.name, n, i, b.tags[i], want)
				}
			}
		}
	}
}

// TestWrapBatchLaneIndependence flips one bit of one lane's key, then
// of its ciphertext, and requires that only that lane's tag word
// changes, on every path and for every lane.
func TestWrapBatchLaneIndependence(t *testing.T) {
	g := NewDeterministicGenerator(105)
	var base WrapBatch
	for i := range hashLanes {
		base.key[i], base.ct[i] = g.MustNewKey(), [KeySize]byte(g.MustNewKey())
	}
	base.n = hashLanes
	for _, p := range tagPaths() {
		want := base
		p.fn(&want)
		for lane := range hashLanes {
			for _, field := range []string{"key", "ct"} {
				b := base
				bit := byte(1) << (lane % 8)
				if field == "key" {
					b.key[lane][lane] ^= bit
				} else {
					b.ct[lane][KeySize-1-lane] ^= bit
				}
				p.fn(&b)
				for i := range hashLanes {
					if changed := b.tags[i] != want.tags[i]; changed != (i == lane) {
						t.Fatalf("%s: flipping lane %d's %s changed lane %d's tag: %v", p.name, lane, field, i, changed)
					}
				}
			}
		}
	}
}
