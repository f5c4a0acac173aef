package udptrans

import (
	"context"
	"slices"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/obs"
)

// BenchmarkDistributeTimeToKey is the five-second proxy for the wire
// benchmark's time_to_key: 256 loopback clients, loss-free, unsigned, a
// quarter of them replaced every interval so that the message is
// several packets and the members' own packets are spread over them. It
// reports the members' time from
// the start of Distribute to their EvMemberDone -- with the fan-out
// emulating multicast by unicast, a measure of where in the send order
// a member's own packet sits -- and the system calls the fan-out cost on
// each end, sends/op and recvs/op. For ~30 datagrams a member, sends/op
// is a few sendmmsg calls a pass over the members, and recvs/op a few
// reads a member; without batches both are one a (member, datagram).
// ns/op is dominated by the one NACK window an interval waits out.
func BenchmarkDistributeTimeToKey(b *testing.B) {
	const n, churn = 256, 64
	sreg := obs.New()
	ks, err := rekey.NewServer(rekey.WithKeySeed(41), rekey.WithObs(sreg))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	reg := obs.NewWithDepth(4 * n)
	clients := make(map[rekey.MemberID]*Client, n+churn)
	admit := func(id rekey.MemberID) {
		cred, ok := ks.Credentials(id)
		if !ok {
			b.Fatalf("no credentials for %d", id)
		}
		c, err := NewClient(cred, srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		c.Obs = reg
		clients[id] = c
		srv.SetMemberAddr(id, c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		b.Cleanup(func() { c.Close() })
	}
	for i := 0; i < n; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			b.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		admit(rekey.MemberID(i))
	}
	if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	waitKeyed(b, ks, clients, 3*time.Second)

	var ms []float64
	sends, recvs := sreg.CounterValue(obs.CSendCalls), reg.CounterValue(obs.CRecvCalls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := i * churn; j < (i+1)*churn; j++ {
			leaver, joiner := rekey.MemberID(j), rekey.MemberID(n+j)
			if err := ks.QueueLeave(leaver); err != nil {
				b.Fatal(err)
			}
			if err := ks.QueueJoin(joiner); err != nil {
				b.Fatal(err)
			}
			clients[leaver].Close()
			srv.RemoveMemberAddr(leaver)
			delete(clients, leaver)
		}
		rm, err := ks.Rekey()
		if err != nil {
			b.Fatal(err)
		}
		for j := i * churn; j < (i+1)*churn; j++ {
			admit(rekey.MemberID(n + j))
		}
		start := time.Now()
		if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		waitKeyed(b, ks, clients, 3*time.Second)
		for _, ev := range reg.Events() {
			if ev.Kind == obs.EvMemberDone && ev.MsgID == rm.MsgID && !ev.Time.Before(start) {
				ms = append(ms, float64(ev.Time.Sub(start))/1e6)
			}
		}
	}
	b.StopTimer()
	if len(ms) != n*b.N {
		b.Fatalf("%d members reported done over %d intervals of %d", len(ms), b.N, n)
	}
	slices.Sort(ms)
	b.ReportMetric(ms[len(ms)/2], "p50-ms")
	b.ReportMetric(ms[len(ms)*99/100], "p99-ms")
	b.ReportMetric(float64(sreg.CounterValue(obs.CSendCalls)-sends)/float64(b.N), "sends/op")
	b.ReportMetric(float64(reg.CounterValue(obs.CRecvCalls)-recvs)/float64(b.N), "recvs/op")
}
