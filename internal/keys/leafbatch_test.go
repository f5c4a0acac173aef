package keys

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// datagramLen is a wire datagram's length (packet.PacketLen): the
// longest leaf a lane stages is one datagram.
const datagramLen = 1027

// hashPath is one way to hash a batch's staged lanes.
type hashPath struct {
	name string
	fn   func(*LeafBatch)
}

// hashPaths lists the dispatched path and, where the kernel exists, the
// portable path and the kernel on their own (the kernel for any lane
// count, below minKernelLanes too).
func hashPaths() []hashPath {
	paths := []hashPath{{"dispatch", hashStaged}}
	if hasAVX512 {
		paths = append(paths, hashPath{"generic", hashStagedGeneric})
		paths = append(paths, kernelPaths()...)
	}
	return paths
}

// flushWith hashes b's staged lanes through fn, as Flush does through
// the dispatched path.
func flushWith(b *LeafBatch, fn func(*LeafBatch)) {
	if b.n > 0 {
		fn(b)
		b.n, b.maxBlocks = 0, 0
	}
}

// randomBytes returns n bytes drawn from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	return data
}

// leafLens are the leaf data lengths of the tests' lanes: 0, each side
// of the one-, two- and three-block edges of the padded message
// (message lengths 55/56, 63/64 and 119/120, two bytes longer than the
// data), a USR datagram, a datagram, the longest staged leaf and the
// shortest that is not, and two datagrams.
var leafLens = []int{0, 1, 53, 54, 61, 62, 117, 118, 145, datagramLen, maxStagedLeaf, maxStagedLeaf + 1, 2 * datagramLen}

// TestLeafBatchEveryLength hashes every leaf length from 0 to two
// datagrams, 16 consecutive lengths to a call -- lanes of different
// lengths sharing it -- through one reused batch on every path, and
// compares every lane with LeafHash.
func TestLeafBatchEveryLength(t *testing.T) {
	data := randomBytes(rand.New(rand.NewPCG(1, 44)), 2*datagramLen)
	for _, p := range hashPaths() {
		var b LeafBatch
		var got [hashLanes]MerkleHash
		for lo := 0; lo <= len(data); lo += hashLanes {
			n := min(hashLanes, len(data)+1-lo)
			for i := range n {
				b.Add(&got[i], DomainUSR, data[:lo+i])
			}
			flushWith(&b, p.fn)
			for i := range n {
				if want := LeafHash(DomainUSR, data[:lo+i]); got[i] != want {
					t.Fatalf("%s: lane %d of %d, %d bytes: %x, LeafHash %x", p.name, i, n, lo+i, got[i], want)
				}
			}
		}
	}
}

// TestLeafBatchEveryLaneCount runs batches of every size from 1 to 16,
// of leaves of leafLens's lengths under three domains, through one
// reused batch, so a short batch runs over the stale, longer lanes of
// the one before, and compares every lane with LeafHash.
func TestLeafBatchEveryLaneCount(t *testing.T) {
	data := randomBytes(rand.New(rand.NewPCG(2, 44)), 2*datagramLen)
	for _, p := range hashPaths() {
		var b LeafBatch
		for n := 1; n <= hashLanes; n++ {
			var got, want [hashLanes]MerkleHash
			for i := range n {
				leaf := data[:leafLens[(i+n)%len(leafLens)]]
				domain := byte(DomainENC + i%3)
				b.Add(&got[i], domain, leaf)
				want[i] = LeafHash(domain, leaf)
			}
			flushWith(&b, p.fn)
			if got != want {
				t.Fatalf("%s: %d lanes: got %x, want %x", p.name, n, got[:n], want[:n])
			}
		}
	}
}

// TestHashLevelMatchesNodeHash builds levels of every width from 0 to
// 50 nodes -- none, part of and several kernel calls, and a remainder --
// and compares every node with nodeHash.
func TestHashLevelMatchesNodeHash(t *testing.T) {
	level := merkleLeaves(rand.New(rand.NewPCG(3, 44)), 100)
	for w := 0; w <= len(level)/2; w++ {
		next := make([]MerkleHash, w)
		hashLevel(next, level[:2*w])
		for i := range next {
			if want := nodeHash(&level[2*i], &level[2*i+1]); next[i] != want {
				t.Fatalf("width %d, node %d: %x, nodeHash %x", w, i, next[i], want)
			}
		}
	}
}

// FuzzLeafBatch stages 1 to 16 leaves cut from the fuzzer's bytes --
// lane i takes them from offset i*stride on, so lane lengths differ by
// the fuzzer's stride -- under the fuzzer's domain, and checks every
// lane against LeafHash on every path.
func FuzzLeafBatch(f *testing.F) {
	f.Add([]byte("leaf"), uint8(0), uint8(DomainUSR), uint16(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(15), uint8(DomainENC), uint16(7))
	f.Add(bytes.Repeat([]byte{0x5a}, 2*datagramLen), uint8(5), uint8(0xff), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, lanes, domain uint8, stride uint16) {
		n := 1 + int(lanes)%hashLanes
		leaf := func(i int) []byte { return data[(i*int(stride))%(len(data)+1):] }
		for _, p := range hashPaths() {
			var b LeafBatch
			var got [hashLanes]MerkleHash
			for i := range n {
				b.Add(&got[i], domain, leaf(i))
			}
			flushWith(&b, p.fn)
			for i := range n {
				if want := LeafHash(domain, leaf(i)); got[i] != want {
					t.Fatalf("%s: lane %d of %d (%d bytes): %x, LeafHash %x", p.name, i, n, len(leaf(i)), got[i], want)
				}
			}
		}
	})
}

// BenchmarkLeafBatch prices one leaf hash through a full batch against
// LeafHash alone, for a USR-sized leaf (a 145-byte datagram, three
// blocks) and a datagram leaf (17 blocks), and one node hash through a
// 16-node level against nodeHash alone.
func BenchmarkLeafBatch(b *testing.B) {
	var sums [hashLanes]MerkleHash
	for _, l := range []int{145, datagramLen} {
		data := bytes.Repeat([]byte{0x3c}, l)
		b.Run(fmt.Sprintf("leaf=%dB/batch", l), func(b *testing.B) {
			var lb LeafBatch
			for i := 0; i < b.N; i++ {
				lb.Add(&sums[i%hashLanes], DomainUSR, data)
			}
			lb.Flush()
		})
		b.Run(fmt.Sprintf("leaf=%dB/LeafHash", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sums[i%hashLanes] = LeafHash(DomainUSR, data)
			}
		})
	}
	nodes := merkleLeaves(rand.New(rand.NewPCG(4, 44)), 2*hashLanes)
	b.Run("node/hashLevel", func(b *testing.B) {
		for i := 0; i < b.N; i += hashLanes {
			hashLevel(sums[:], nodes)
		}
	})
	b.Run("node/nodeHash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % hashLanes
			sums[j] = nodeHash(&nodes[2*j], &nodes[2*j+1])
		}
	})
}
