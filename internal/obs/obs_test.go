package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every tracing call must be a no-op on nil receivers: instrumented
	// code paths run them unconditionally.
	var tr *Trace
	var sp *Span
	var sl *StageLog
	var tc *Tracer
	sp.End()
	sp.SetAttrs(Str("k", "v"))
	sp.SetError()
	if tr.StartSpan(nil, "x") != nil || tr.AddSpan(nil, "x", time.Now(), 0) != nil {
		t.Fatal("nil trace produced a span")
	}
	tr.AddStages(nil, nil)
	tr.Graft(nil, &WireSpan{Name: "x"})
	if tr.Wire() != nil || tr.WireRoot() != nil || tr.ID() != "" || tr.Traceparent() != "" {
		t.Fatal("nil trace produced wire output")
	}
	sl.Record("x", time.Now())
	if sl.Records() != nil {
		t.Fatal("nil stage log returned records")
	}
	if tc.Start("x") != nil || tc.StartRemote("", "x") != nil {
		t.Fatal("nil tracer produced a trace")
	}
	tc.Finish(nil, nil)
	if tc.Recent() != nil || tc.Slow() != nil {
		t.Fatal("nil tracer returned traces")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context carried trace %v", got)
	}
	if ctx := WithTrace(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("WithTrace(nil) stored a trace")
	}
}

func TestSpanTreeAndWire(t *testing.T) {
	tc := NewTracer(TracerConfig{})
	tr := tc.Start("root.op")
	if tr == nil {
		t.Fatal("default tracer skipped a request")
	}
	a := tr.StartSpan(nil, "stage.a")
	a.SetAttrs(Int("n", 3), Bool("hit", true))
	b := tr.StartSpan(a, "stage.a.inner")
	b.End()
	a.End()
	tr.AddSpan(nil, "stage.b", time.Now().Add(-time.Millisecond), time.Millisecond, Float("sel", 0.25))
	tc.Finish(tr, nil)

	wt := tr.Wire()
	if wt.TraceID != tr.ID() || len(wt.TraceID) != 32 {
		t.Fatalf("bad trace id %q", wt.TraceID)
	}
	if len(wt.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(wt.Root.Children))
	}
	if wt.Root.Children[0].Name != "stage.a" || len(wt.Root.Children[0].Children) != 1 {
		t.Fatalf("span tree mismatch: %+v", wt.Root.Children[0])
	}
	if wt.Root.Children[0].Attrs["hit"] != "true" {
		t.Fatalf("attrs lost: %v", wt.Root.Children[0].Attrs)
	}
	if wt.Stages["stage.b"] < 0.0009 {
		t.Fatalf("stage breakdown missing stage.b: %v", wt.Stages)
	}
	if wt.Dur <= 0 {
		t.Fatalf("unfinished root duration %v", wt.Dur)
	}
}

func TestConcurrentSpans(t *testing.T) {
	// Fanout layers add spans from many goroutines; the trace must take it.
	tc := NewTracer(TracerConfig{})
	tr := tc.Start("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.StartSpan(nil, "shard.request")
			sp.SetAttrs(Str("x", "y"))
			sp.End()
		}()
	}
	wg.Wait()
	tc.Finish(tr, nil)
	if got := len(tr.Wire().Root.Children); got != 16 {
		t.Fatalf("got %d spans, want 16", got)
	}
}

func TestTailSamplingKeepsSlowAndErrors(t *testing.T) {
	tc := NewTracer(TracerConfig{Capacity: 4, SlowCapacity: 8, SlowThreshold: time.Hour})
	// Fast, successful traces churn through the small recent ring.
	for i := 0; i < 10; i++ {
		tc.Finish(tc.Start("fast"), nil)
	}
	// One failed trace lands in the slow ring despite being fast.
	failed := tc.Start("failed")
	tc.Finish(failed, errors.New("boom"))
	// One slow trace: backdate its root past the threshold.
	slow := tc.Start("slow")
	slow.root.start = time.Now().Add(-2 * time.Hour)
	tc.Finish(slow, nil)
	// More churn evicts both from the recent ring.
	for i := 0; i < 10; i++ {
		tc.Finish(tc.Start("fast"), nil)
	}

	if got := len(tc.Recent()); got != 4 {
		t.Fatalf("recent ring holds %d, want capacity 4", got)
	}
	kept := tc.Slow()
	if len(kept) != 2 {
		t.Fatalf("slow ring holds %d, want 2", len(kept))
	}
	// Newest first: slow then failed.
	if kept[0].Name != "slow" || !kept[0].Slow {
		t.Fatalf("slow trace not retained first: %+v", kept[0])
	}
	if kept[1].Name != "failed" || !kept[1].Err {
		t.Fatalf("failed trace not retained: %+v", kept[1])
	}
	st := tc.Stats()
	if st.Slow != 1 || st.Errors != 1 || st.Finished != 22 {
		t.Fatalf("tracer stats %+v", st)
	}
}

func TestHeadSampling(t *testing.T) {
	tc := NewTracer(TracerConfig{SampleEvery: 4})
	traced := 0
	for i := 0; i < 16; i++ {
		if tr := tc.Start("x"); tr != nil {
			traced++
			tc.Finish(tr, nil)
		}
	}
	if traced != 4 {
		t.Fatalf("traced %d of 16 at SampleEvery=4", traced)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTracer(TracerConfig{})
	tr := tc.Start("root")
	h := tr.Traceparent()
	id, sampled, ok := ParseTraceparent(h)
	if !ok || !sampled || id != tr.ID() {
		t.Fatalf("round trip failed: %q -> (%q, %v, %v)", h, id, sampled, ok)
	}

	// A remote start continues the identity and always samples.
	remote := tc.StartRemote(h, "serve.request")
	if remote == nil || remote.ID() != tr.ID() || !remote.remote {
		t.Fatalf("remote start mismatch: %+v", remote)
	}
	// Unsampled upstream decision wins.
	if got := tc.StartRemote("00-"+tr.ID()+"-"+tr.ID()[:16]+"-00", "x"); got != nil {
		t.Fatalf("unsampled header still traced: %+v", got)
	}
	// Malformed headers degrade to local sampling, not errors.
	for _, bad := range []string{"", "garbage", "00-short-deadbeefdeadbeef-01", "zz-" + tr.ID() + "-" + tr.ID()[:16] + "-01"} {
		if got := tc.StartRemote(bad, "x"); got == nil {
			t.Fatalf("malformed header %q suppressed local sampling", bad)
		}
	}
}

func TestGraftRebasesShardSpans(t *testing.T) {
	tc := NewTracer(TracerConfig{})
	// Shard-side segment.
	shardTr := tc.StartRemote("00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-aaaaaaaaaaaaaaaa-01", "serve.request")
	q := tr2span(shardTr, "serve.queue")
	q.End()
	tc.Finish(shardTr, nil)
	ann := shardTr.WireRoot()

	// Router-side trace grafts the annotation under its fanout span.
	routerTr := tc.Start("router.search")
	sp := routerTr.StartSpan(nil, "shard.request")
	sp.End()
	routerTr.Graft(sp, ann)
	tc.Finish(routerTr, nil)

	wt := routerTr.Wire()
	shardNode := wt.Root.Children[0].Children[0]
	if shardNode.Name != "serve.request" {
		t.Fatalf("graft missing: %+v", wt.Root.Children[0])
	}
	if len(shardNode.Children) != 1 || shardNode.Children[0].Name != "serve.queue" {
		t.Fatalf("grafted children lost: %+v", shardNode)
	}
	if wt.Stages["serve.queue"] <= 0 && wt.Stages["serve.request"] <= 0 {
		t.Fatalf("grafted stages not in breakdown: %v", wt.Stages)
	}
}

func tr2span(tr *Trace, name string) *Span { return tr.StartSpan(nil, name) }

func TestStageLogReplay(t *testing.T) {
	sl := &StageLog{}
	start := time.Now().Add(-time.Millisecond)
	sl.Record("mutable.engine", start, Int("epoch", 2))
	sl.Record("mutable.overlay", time.Now())
	tc := NewTracer(TracerConfig{})
	tr := tc.Start("serve.request")
	d := tr.StartSpan(nil, "serve.dispatch")
	tr.AddStages(d, sl.Records())
	d.End()
	tc.Finish(tr, nil)
	wt := tr.Wire()
	disp := wt.Root.Children[0]
	if len(disp.Children) != 2 || disp.Children[0].Attrs["epoch"] != "2" {
		t.Fatalf("stage replay mismatch: %+v", disp)
	}
}

func TestTraceRecentEndpoint(t *testing.T) {
	tc := NewTracer(TracerConfig{})
	tc.Finish(tc.Start("op"), nil)
	rec := httptest.NewRecorder()
	tc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace/recent", nil))
	var payload RecentPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(payload.Recent) != 1 || payload.Recent[0].Name != "op" {
		t.Fatalf("payload mismatch: %+v", payload)
	}
}

func TestKernelCounters(t *testing.T) {
	var k KernelCounters
	k.RecordScan(2_000_000, 1000, 1*time.Millisecond)
	k.RecordScan(0, 0, time.Second) // empty passes are dropped
	k.RecordLUT(4096, 0)
	s := k.Snapshot()
	if s.ScanBytes != 2_000_000 || s.ScanCodes != 1000 || s.LUTEntries != 4096 {
		t.Fatalf("snapshot %+v", s)
	}
	// 2 MB over 1 ms = 2 GB/s.
	if s.AchievedGBps < 1.9 || s.AchievedGBps > 2.1 {
		t.Fatalf("achieved %v GB/s, want ~2", s.AchievedGBps)
	}
	if s.RooflineGBps <= 0 {
		t.Fatalf("roofline bound missing: %+v", s)
	}
	w := NewPromWriter()
	k.WriteMetrics(w)
	out := string(w.Bytes())
	for _, want := range []string{"upanns_kernel_scan_gbps", "upanns_kernel_roofline_gbps", "upanns_kernel_scan_bytes_total 2e+06"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestProcessStats(t *testing.T) {
	p := Process()
	if p.Goroutines <= 0 || p.UptimeSeconds < 0 {
		t.Fatalf("process stats %+v", p)
	}
	w := NewPromWriter()
	p.WriteMetrics(w)
	if !strings.Contains(string(w.Bytes()), "upanns_process_goroutines") {
		t.Fatal("process metrics missing goroutine gauge")
	}
}
