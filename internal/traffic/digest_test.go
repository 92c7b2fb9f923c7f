package traffic

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
)

// refFlowDigest is the fmt rendering that Flow.DigestState replaced,
// kept verbatim as the reference its bytes must equal. The sketch lines
// come from trace.Quantile.DigestState, whose own test holds it to its
// former fmt rendering.
func refFlowDigest(f *Flow, w io.Writer) {
	fmt.Fprintf(w, "flow id=%d model=%d up=%t bytes=%d ival=%d run=%t start=%d on=%d lastdata=%d lastreq=%d evs=%t timeout=%t\n",
		f.ID, f.Spec.Model, f.Spec.Uplink, f.Spec.Bytes, int64(f.Spec.Interval),
		f.running, int64(f.startAt), int64(f.onLeft), f.lastDataSeq, f.lastReqSeq,
		f.ev.Scheduled(), f.timeoutEv.Scheduled())
	t := &f.Tel
	fmt.Fprintf(w, "tel gen=%d req=%d qdrop=%d reqdrop=%d del=%d bytes=%d max=%d lastat=%d sum=%d last=%d have=%t jsum=%d jn=%d\n",
		t.Generated, t.Requests, t.QueueDropped, t.RequestDropped,
		t.Delivered, t.DeliveredBytes, int64(t.DelayMax), int64(t.LastDeliveredAt),
		int64(t.delaySum), int64(t.lastDelay), t.haveLast, int64(t.jitterSum), t.jitterN)
	d := checkpoint.NewDigest(w)
	t.p50.DigestState(d)
	t.p95.DigestState(d)
	t.p99.DigestState(d)
	d.Flush()
}

func digestInt(r *rand.Rand) int64 {
	edge := []int64{0, -1, 1, 100, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	if r.Intn(2) == 0 {
		return edge[r.Intn(len(edge))]
	}
	return int64(r.Uint64()) >> r.Intn(64)
}

// checkFlowDigest fails the test unless f renders the reference bytes.
func checkFlowDigest(t *testing.T, name string, f *Flow) {
	t.Helper()
	var want, got bytes.Buffer
	refFlowDigest(f, &want)
	d := checkpoint.NewDigest(&got)
	f.DigestState(d)
	d.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s:\n got %q\nwant %q", name, got.Bytes(), want.Bytes())
	}
}

// TestFlowDigestMatchesFmt: flows whose digested fields hold random and
// edge values, and every model's flow mid-run (timers pending, sketches
// filling), render exactly the former fmt bytes.
func TestFlowDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := func() int { return int(digestInt(r)) }
		dur := func() time.Duration { return time.Duration(digestInt(r)) }
		f := &Flow{ID: n(), Spec: Spec{Model: Model(n()), Uplink: r.Intn(2) == 0, Bytes: n(), Interval: dur()},
			running: r.Intn(2) == 0, startAt: dur(), onLeft: dur(), lastDataSeq: digestInt(r), lastReqSeq: digestInt(r),
			Tel: Telemetry{Generated: n(), Requests: n(), QueueDropped: n(), RequestDropped: n(), Delivered: n(),
				DeliveredBytes: digestInt(r), DelayMax: dur(), LastDeliveredAt: dur(), delaySum: dur(), lastDelay: dur(),
				haveLast: r.Intn(2) == 0, jitterSum: dur(), jitterN: n()}}
		f.Tel.init()
		checkFlowDigest(t, fmt.Sprintf("flow %d", i), f)
	}
	for _, m := range Models() {
		w := newTestWorld(3)
		f := w.flowBetween(1, Spec{Model: m, Bytes: 700, Interval: 15 * time.Millisecond})
		f.Start()
		for _, at := range []time.Duration{0, 300 * time.Millisecond, 2 * time.Second} {
			w.eng.RunUntil(at)
			checkFlowDigest(t, fmt.Sprintf("model %d at %v", m, at), f)
		}
	}
}
