package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// liveGet hits /debug/gcassert/live with an already-cancelled context, so
// the handler replays and returns instead of streaming forever.
func liveGet(t *testing.T, tr *Tracer, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, req.WithContext(ctx))
	return rec
}

// TestServeLiveContentTypeAndReplay pins the SSE surface: the content type,
// that the response is flushed, and that ?replay=N resends exactly the last
// N retained events as `data:` frames.
func TestServeLiveContentTypeAndReplay(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 5; i++ {
		tr.Record(&Event{Reason: "forced", TotalNs: int64(i+1) * 1000})
	}
	rec := liveGet(t, tr, "/debug/gcassert/live?replay=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	if !rec.Flushed {
		t.Fatal("response was never flushed; SSE clients would see nothing")
	}
	var seqs []uint64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("replayed seqs %v, want [3 4] (the last two of five)", seqs)
	}
}

func TestServeLiveBadReplay(t *testing.T) {
	rec := liveGet(t, New(Config{}), "/debug/gcassert/live?replay=-1")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d for replay=-1, want 400", rec.Code)
	}
}

// TestSubscribeLiveDelivery checks the in-process subscription path used by
// `mjrun -top`: each recorded event arrives as one JSON frame.
func TestSubscribeLiveDelivery(t *testing.T) {
	tr := New(Config{})
	ch, cancel := tr.SubscribeLive(4)
	defer cancel()
	tr.Record(&Event{Reason: "alloc-failure", TotalNs: 42})
	select {
	case frame := <-ch:
		var ev Event
		if err := json.Unmarshal(frame, &ev); err != nil {
			t.Fatalf("bad frame: %v", err)
		}
		if ev.Reason != "alloc-failure" || ev.TotalNs != 42 {
			t.Fatalf("frame %+v, want the recorded event", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no frame delivered")
	}
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}
}

// TestPublishNeverBlocks pins the stop-the-world safety property: a
// subscriber that stops reading loses frames instead of stalling Record.
func TestPublishNeverBlocks(t *testing.T) {
	tr := New(Config{})
	_, cancel := tr.SubscribeLive(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Record(&Event{Reason: "forced"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked on a slow live subscriber")
	}
}

// TestLiveSlowSubscriberCountsDrops extends the never-block property with
// its observable half: every frame a stalled subscriber loses is counted on
// the tracer and on the metrics surface, and healthy subscribers are
// unaffected.
func TestLiveSlowSubscriberCountsDrops(t *testing.T) {
	tr := New(Config{})

	// A stalled subscriber with a 2-frame buffer that nobody reads.
	_, cancelStalled := tr.SubscribeLive(2)
	defer cancelStalled()

	// A healthy subscriber that consumes everything.
	healthy, cancelHealthy := tr.SubscribeLive(64)
	var got int
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range healthy {
			got++
		}
	}()

	const frames = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			tr.Record(&Event{Reason: "forced"})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Record blocked on a stalled subscriber")
	}

	cancelHealthy()
	<-drained
	if got != frames {
		t.Fatalf("healthy subscriber got %d frames, want %d", got, frames)
	}
	wantDropped := uint64(frames - 2) // the stalled buffer held the first 2
	if d := tr.LiveDropped(); d != wantDropped {
		t.Fatalf("LiveDropped() = %d, want %d", d, wantDropped)
	}
	var buf strings.Builder
	if err := tr.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("gcassert_live_dropped_frames_total %d", wantDropped)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics exposition missing %q:\n%s", want, buf.String())
	}
}

// TestLiveSSESlowClientDropsFrames exercises the drop path through the real
// /debug/gcassert/live endpoint: an SSE client that never reads its body
// lets the server-side channel fill; publishing keeps flowing (collections
// are simulated by Record) and the dropped counter rises.
func TestLiveSSESlowClientDropsFrames(t *testing.T) {
	tr := New(Config{})
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/gcassert/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for tr.live.SubscriberCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	// Publish, without ever reading resp.Body, until a frame is dropped: past
	// the handler's 64-frame buffer and whatever the loopback socket buffers
	// absorb. Those hold megabytes, which under -race is more than a fixed
	// few thousand frames outrun, so the bound is far above it.
	const maxFrames = 500_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < maxFrames && tr.LiveDropped() == 0; i++ {
			tr.Record(&Event{Reason: "forced"})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Record blocked on a slow SSE client")
	}
	if tr.LiveDropped() == 0 {
		t.Fatal("no frames counted as dropped despite a stalled SSE client")
	}

	// What did get through is still a valid SSE stream.
	r := bufio.NewReader(resp.Body)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("first SSE line = %q", line)
	}
}
