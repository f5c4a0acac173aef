package rekey

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/obs"
)

// signedDigest hashes everything a signed message puts on the wire: every
// WireENC, two parity datagrams per block and every user's WireUSR.
func signedDigest(t *testing.T, rm *RekeyMessage) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte{rm.MsgID})
	for j := range rm.ENC {
		w, err := rm.WireENC(j)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(w)
	}
	for b := 0; b < rm.Blocks(); b++ {
		for p := 0; p < 2; p++ {
			w, err := rm.AppendWireParity(nil, b, p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(w)
		}
	}
	for _, uid := range rm.Result.UserIDs {
		w, err := rm.WireUSR(uid)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSignedRekeyIndependentOfWorkers: building the USR subtree beside
// assignment (Workers > 1) or after it (Workers == 1) changes no byte a
// signed server sends, with metrics on or off; with them on, every
// interval records both branches of the overlap once.
func TestSignedRekeyIndependentOfWorkers(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, workers := range []int{1, 2, 8} {
		for _, observed := range []bool{false, true} {
			tn := DefaultTuning()
			tn.Workers = workers
			opts := []Option{WithKeySeed(0x5eed), WithSigner(signer), WithTuning(tn)}
			var reg *obs.Registry
			if observed {
				reg = obs.New()
				opts = append(opts, WithObs(reg))
			}
			s, err := NewServer(opts...)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, gc := range serverGolden {
				queueRanges(t, s, gc.joins, gc.leaves)
				rm, err := s.Rekey()
				if err != nil {
					t.Fatalf("workers=%d obs=%v %s: %v", workers, observed, gc.name, err)
				}
				got = append(got, signedDigest(t, rm))
			}
			if want == nil {
				want = got
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("workers=%d obs=%v %s: digest %s, Workers=1 unobserved gave %s", workers, observed, serverGolden[i].name, got[i], want[i])
				}
			}
			if !observed {
				continue
			}
			snap := reg.Snapshot()
			for _, name := range []string{"assign_build_s", "usr_subtree_s", "sign_root_s"} {
				if h := snap.Histograms[name]; h.Count != int64(len(serverGolden)) {
					t.Errorf("workers=%d: %s count %d, want one per interval (%d)", workers, name, h.Count, len(serverGolden))
				}
			}
		}
	}
}

// TestFailedRekeyWaitsForUSRSubtree: with k=1, a bootstrap of 2^14 users
// needs more than 256 blocks, which assignment refuses a few milliseconds
// in, while the USR subtree over every user is still being built beside
// it. Rekey returns only once that build has finished (and observed its
// histogram); with one worker the serial order never starts it.
func TestFailedRekeyWaitsForUSRSubtree(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		tn := DefaultTuning()
		tn.K, tn.Workers = 1, workers
		reg := obs.New()
		s, err := NewServer(WithKeySeed(5), WithSigner(signer), WithTuning(tn), WithObs(reg))
		if err != nil {
			t.Fatal(err)
		}
		queueRanges(t, s, [2]int{0, 1 << 14}, [2]int{})
		if _, err := s.Rekey(); err == nil || !strings.Contains(err.Error(), "8-bit wire field") {
			t.Fatalf("workers=%d: Rekey error %v, want the block-ID refusal", workers, err)
		}
		snap := reg.Snapshot()
		want := int64(0)
		if workers > 1 {
			want = 1
		}
		if got := snap.Histograms["usr_subtree_s"].Count; got != want {
			t.Errorf("workers=%d: %d USR subtrees built by the time Rekey returned, want %d", workers, got, want)
		}
		if got := snap.Histograms["assign_build_s"].Count; got != 0 {
			t.Errorf("workers=%d: assign_build_s observed %d times for a failed assignment", workers, got)
		}
	}
}

// TestSignedRekeyConcurrentWithQueue runs signed Rekeys while other
// goroutines queue joins and leaves, read credentials and path keys, and
// read the previous message: under -race, the USR subtree's goroutine
// shares nothing it should not.
func TestSignedRekeyConcurrentWithQueue(t *testing.T) {
	tn := DefaultTuning()
	tn.Workers = 2
	s, _ := newSignedServer(t, 3, WithTuning(tn))
	const n, rounds = 400, 12
	queueRanges(t, s, [2]int{0, n}, [2]int{})
	if _, err := s.Rekey(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // n joins
		defer wg.Done()
		for m := n; m < 2*n; m++ {
			if err := s.QueueJoin(MemberID(m)); err != nil {
				t.Errorf("QueueJoin(%d): %v", m, err)
				return
			}
		}
	}()
	go func() { // the first n/2 leave
		defer wg.Done()
		for m := 0; m < n/2; m++ {
			if err := s.QueueLeave(MemberID(m)); err != nil {
				t.Errorf("QueueLeave(%d): %v", m, err)
				return
			}
		}
	}()
	go func() { // readers, until the Rekeys are done
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			m := MemberID(n - 1 - i%n)
			s.Credentials(m)
			s.PathKeys(m)
			if rm := s.LastMessage(); rm != nil && len(rm.Result.UserIDs) > 0 {
				if _, err := rm.WireUSR(rm.Result.UserIDs[i%len(rm.Result.UserIDs)]); err != nil {
					t.Errorf("WireUSR on the last message: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		if _, err := s.Rekey(); err != nil && !errors.Is(err, ErrNoChange) {
			t.Errorf("round %d: %v", r, err)
		}
	}
	close(done)
	wg.Wait()
	if _, err := s.Rekey(); err != nil && !errors.Is(err, ErrNoChange) {
		t.Fatal(err)
	}
	for m := 0; m < 2*n; m++ {
		if _, ok := s.Credentials(MemberID(m)); ok != (m >= n/2) {
			t.Fatalf("member %d: credentials %v, want %v", m, ok, m >= n/2)
		}
	}
}
