package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// nilReceiverPanics calls every method in ptr's method set on a nil
// receiver with zero arguments, serves one request from any
// http.Handler that comes back, and returns the methods that panicked.
func nilReceiverPanics(ptr reflect.Type) []string {
	var bad []string
	for i := 0; i < ptr.NumMethod(); i++ {
		m := ptr.Method(i)
		func() {
			defer func() {
				if recover() != nil {
					bad = append(bad, m.Name)
				}
			}()
			args := []reflect.Value{reflect.Zero(ptr)}
			for j := 1; j < m.Type.NumIn(); j++ {
				args = append(args, reflect.Zero(m.Type.In(j)))
			}
			for _, out := range m.Func.Call(args) {
				if h, ok := out.Interface().(http.Handler); ok {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
				}
			}
		}()
	}
	return bad
}

// leakyRegistry is the seeded violation of the deleted obsnil analyzer
// (its testdata/obsnil/obs fixture, less the mutex: with one, go vet's
// copylocks already rejects Size's receiver): Add has the required
// shape, Reset touches fields with no guard, Size has a value receiver.
type leakyRegistry struct {
	counters map[string]int64
}

func (r *leakyRegistry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.counters[name] += delta
}

func (r *leakyRegistry) Reset(name string) { delete(r.counters, name) }

func (r leakyRegistry) Size() int { return len(r.counters) }

// TestNilRegistryNoops: every method must be a safe no-op on nil, since
// the uninstrumented hot paths call straight through. The sweep is over
// the method set, so a method added later is covered the day it lands;
// run on the seeded violation, it names the two bad methods. The other
// half of the contract -- no caller dereferences or copies a possibly-nil
// registry -- needs no test: outside this package `r.start` is the
// compiler's "cannot refer to unexported field", which holds while every
// field stays unexported, and `*r` is go vet's "copylocks: return copies
// lock value: obs.Registry contains sync/atomic.Int64".
func TestNilRegistryNoops(t *testing.T) {
	if bad := nilReceiverPanics(reflect.TypeOf((*Registry)(nil))); len(bad) != 0 {
		t.Fatalf("methods that panic on a nil *Registry: %v", bad)
	}
	if bad := nilReceiverPanics(reflect.TypeOf((*leakyRegistry)(nil))); !reflect.DeepEqual(bad, []string{"Reset", "Size"}) {
		t.Fatalf("seeded violation: sweep reports %v, want [Reset Size]", bad)
	}
	rt := reflect.TypeOf(Registry{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.IsExported() {
			t.Errorf("Registry.%s is exported: callers could reach it through a nil pointer", f.Name)
		}
	}

	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if got := r.CounterValue(CEncSent); got != 0 {
		t.Fatalf("nil CounterValue = %d", got)
	}
	if got := r.GaugeValue(GRho); got != 0 {
		t.Fatalf("nil GaugeValue = %v", got)
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil Events = %v", evs)
	}
	if d := r.EventsDropped(); d != 0 {
		t.Fatalf("nil EventsDropped = %d", d)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil Snapshot not empty")
	}
}

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): the fast paths every pipeline
// stage calls allocate nothing, on the nil registry an unobserved run
// passes and on a live one.
func TestHotPathAllocs(t *testing.T) {
	start := time.Now()
	for name, r := range map[string]*Registry{"nil": nil, "live": New()} {
		got := testing.AllocsPerRun(100, func() {
			_ = r.Enabled()
			r.Add(CNACKRecv, 7)
			r.Inc(CEncSent)
			_ = r.CounterValue(CEncSent)
			r.Set(GRho, 1.5)
			_ = r.GaugeValue(GRho)
			r.Observe(HNACKsPerRound, 3)
			r.ObserveSince(HNACKsPerRound, start)
		})
		if got != 0 {
			t.Errorf("%s registry: %v allocs per pass over the fast paths, want 0", name, got)
		}
	}
}

// TestConcurrentCounters hammers counters, gauges and histograms from
// many goroutines (run under -race) and checks the totals are exact.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc(CEncSent)
				r.Add(CParitySent, 2)
				r.Set(GRho, 1.25)
				r.Observe(HNACKsPerRound, float64(i%7))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue(CEncSent); got != workers*perWorker {
		t.Fatalf("enc_sent = %d, want %d", got, workers*perWorker)
	}
	if got := r.CounterValue(CParitySent); got != 2*workers*perWorker {
		t.Fatalf("parity_sent = %d, want %d", got, 2*workers*perWorker)
	}
	if got := r.GaugeValue(GRho); got != 1.25 {
		t.Fatalf("rho = %v, want 1.25", got)
	}
	hs := r.Snapshot().Histograms["nacks_per_round"]
	if hs.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", hs.Count, workers*perWorker)
	}
	// Sum accumulates via CAS; must be exact for integer observations.
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 7)
	}
	wantSum *= workers
	if math.Abs(hs.Sum-wantSum) > 1e-6 {
		t.Fatalf("hist sum = %v, want %v", hs.Sum, wantSum)
	}
	var inBuckets int64
	for _, b := range hs.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != hs.Count {
		t.Fatalf("bucket counts total %d, want %d", inBuckets, hs.Count)
	}
}

// TestConcurrentEmit checks ring-buffer trace integrity under
// concurrent writers: sequence numbers must be dense and unique.
func TestConcurrentEmit(t *testing.T) {
	r := NewWithDepth(256)
	const workers = 4
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit(Event{Kind: EvNACKReceived, User: w*perWorker + i})
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != 256 {
		t.Fatalf("retained %d events, want 256", len(evs))
	}
	if dropped := r.EventsDropped(); dropped != workers*perWorker-256 {
		t.Fatalf("dropped = %d, want %d", dropped, workers*perWorker-256)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-dense seq at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestRingWraparound: a depth-8 ring retains exactly the last 8 events
// in emit order.
func TestRingWraparound(t *testing.T) {
	r := NewWithDepth(8)
	for i := 0; i < 20; i++ {
		r.Emit(Event{Kind: EvRoundStart, Round: i})
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if ev.Round != 12+i {
			t.Fatalf("event %d has Round %d, want %d", i, ev.Round, 12+i)
		}
		if ev.Seq != uint64(12+i) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, 12+i)
		}
		if ev.Name != "RoundStart" {
			t.Fatalf("event %d has Name %q", i, ev.Name)
		}
	}
	if d := r.EventsDropped(); d != 12 {
		t.Fatalf("dropped = %d, want 12", d)
	}
}

// TestEventsBeforeWrap returns fewer events than depth without stale
// zero entries.
func TestEventsBeforeWrap(t *testing.T) {
	r := NewWithDepth(8)
	r.Emit(Event{Kind: EvRekeyBuilt, Value: 42})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Value != 42 || evs[0].Name != "RekeyBuilt" {
		t.Fatalf("events = %+v", evs)
	}
	if d := r.EventsDropped(); d != 0 {
		t.Fatalf("dropped = %d, want 0", d)
	}
}

// TestSnapshotJSON: the snapshot must marshal (no +Inf leakage) and
// round-trip the overflow bucket as null.
func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Observe(HRoundLatency, 99) // lands in the +Inf overflow bucket
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var snap struct {
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				Le    *float64 `json:"le"`
				Count int64    `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	hs := snap.Histograms["round_latency_s"]
	if hs.Count != 1 {
		t.Fatalf("round_latency_s count = %d", hs.Count)
	}
	last := hs.Buckets[len(hs.Buckets)-1]
	if last.Le != nil {
		t.Fatalf("overflow bucket le = %v, want null", *last.Le)
	}
	if last.Count != 1 {
		t.Fatalf("overflow bucket count = %d, want 1", last.Count)
	}
}

// TestHandlers drives /metrics and /trace through the mux.
func TestHandlers(t *testing.T) {
	r := New()
	r.Inc(CRekeys)
	r.Set(GGroupSize, 128)
	r.Emit(Event{Kind: EvSwitchToUnicast, MsgID: 3, Value: 2})
	mux := r.ServeMux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var m struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/metrics json: %v", err)
	}
	if m.Counters["rekeys"] != 1 || m.Gauges["group_size"] != 128 {
		t.Fatalf("/metrics contents: %+v", m)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace status %d", rec.Code)
	}
	var tr struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Kind  string  `json:"kind"`
			MsgID uint8   `json:"msg_id"`
			Value float64 `json:"value"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("/trace json: %v", err)
	}
	if len(tr.Events) != 1 || tr.Events[0].Kind != "SwitchToUnicast" ||
		tr.Events[0].MsgID != 3 || tr.Events[0].Value != 2 {
		t.Fatalf("/trace contents: %+v", tr)
	}
}
