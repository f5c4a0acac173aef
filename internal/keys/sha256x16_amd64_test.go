//go:build amd64 && !purego

package keys

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

// TestSHA256KernelMatchesCPUID pins the 16-lane kernels' dispatch rule:
// the AVX-512 kernels run exactly when CPUID reports AVX512F and the OS
// enables its state. Where the kernel's flag list is readable, it must
// agree too: Linux lists avx512f only when both hold.
func TestSHA256KernelMatchesCPUID(t *testing.T) {
	want := "generic"
	if cpuHasAVX512F() {
		want = "avx512"
	}
	if got := SHA256Kernel(); got != want {
		t.Fatalf("SHA256Kernel() = %q with CPUID AVX512F = %v, want %q", got, cpuHasAVX512F(), want)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check CPUID against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed := strings.Contains(flags+" ", " avx512f ")
			if listed != cpuHasAVX512F() {
				t.Fatalf("/proc/cpuinfo lists avx512f = %v, CPUID AVX512F = %v", listed, cpuHasAVX512F())
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestKernelLayouts calls hashBlocksAVX512 on each row layout its
// callers stage -- WrapBatch's 80- and 96-byte HMAC passes and
// hashNodes' 65-byte nodes in two-block rows, LeafBatch's leaves of
// mixed lengths in rows of laneBytes -- at 1 to 16 lanes through one
// reused stage, so the lanes past a call's own still hold the call
// before's messages and block counts, and compares every lane's digest
// with crypto/sha256's.
func TestKernelLayouts(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512F")
	}
	rng := rand.New(rand.NewPCG(6, 44))
	for _, layout := range []struct {
		name   string
		stride int
		len    func(lane, lanes int) int
	}{
		{"tag inner", pairRow, func(_, _ int) int { return hmacBlockSize + KeySize }},
		{"tag outer", pairRow, func(_, _ int) int { return hmacBlockSize + sha256.Size }},
		{"node", pairRow, func(_, _ int) int { return 1 + 2*HashSize }},
		{"leaf", laneBytes, func(lane, lanes int) int { return (lane*131 + lanes*17) % (laneBytes - 8) }},
	} {
		stage := make([]byte, hashLanes*layout.stride)
		var blocks [hashLanes]uint32
		for n := 1; n <= hashLanes; n++ {
			var want, got [hashLanes]MerkleHash
			maxBlocks := 0
			for i := range n {
				msg := randomBytes(rng, layout.len(i, n))
				row := stage[i*layout.stride : (i+1)*layout.stride]
				b := (len(msg) + 9 + sha256.BlockSize - 1) / sha256.BlockSize
				end := b * sha256.BlockSize
				copy(row, msg)
				row[len(msg)] = 0x80
				clear(row[len(msg)+1 : end-8])
				binary.BigEndian.PutUint64(row[end-8:end], uint64(len(msg))*8)
				blocks[i], maxBlocks = uint32(b), max(maxBlocks, b)
				want[i] = sha256.Sum256(msg)
			}
			hashBlocksAVX512(&stage[0], layout.stride, &blocks, maxBlocks, &got)
			for i := range n {
				if got[i] != want[i] {
					t.Fatalf("%s, %d lanes, lane %d: %x, crypto/sha256 %x", layout.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// kernelPaths is the Merkle kernel on its own, for any lane count.
func kernelPaths() []hashPath { return []hashPath{{"avx512", hashStagedAVX512}} }
