package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcassert"
	"gcassert/internal/assertd"
	"gcassert/internal/slo"
)

// svcConfig is the service workload's fixed settings (config.json "svc").
type svcConfig struct {
	// Rungs is the open-loop rate ladder, lowest first. The rungs named
	// low, mid and high sit below the knee; the rest go past it so that
	// the highest rate within the latency limit can still rise.
	Rungs []struct {
		Name string  `json:"name"`
		RPS  float64 `json:"rps"`
	} `json:"rungs"`
	// LatencyLimitMs is the p99 latency limit of max_rps_within_slo.
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// LatenessP50LimitMs and LatenessP99LimitMs mark the ladder invalid
	// when the generator woke later than this, at p50 or p99, on the low,
	// mid and high rungs.
	LatenessP50LimitMs float64 `json:"lateness_p50_limit_ms"`
	LatenessP99LimitMs float64 `json:"lateness_p99_limit_ms"`
}

// The service run splits --seconds into a warm-up, the closed-loop
// saturation phase and the ladder, whose rungs share the rest equally.
const (
	warmupShare     = 0.03
	saturationShare = 0.45
)

// eventPoll is how often the tenants' GC event rings are read. A ring
// holds 1024 events and a tenant collects once per request, so this must
// stay well under 1024 / (the saturated request rate) seconds.
const eventPoll = 100 * time.Millisecond

// svcTenants are the two tenants: clean runs the guest with no violation
// and the default tenant configuration; observed adds an SLO, sampled
// tracing, sampled provenance and exactly one violation per request.
var svcTenants = []struct {
	id   string
	leak bool
	opts assertd.TenantOptions
}{
	{id: "clean"},
	{id: "observed", leak: true, opts: assertd.TenantOptions{
		Provenance: "sampled",
		Trace:      &assertd.TraceOptions{Probability: 0.01},
		SLO: &slo.Spec{Objectives: []slo.Objective{
			{Kind: slo.KindAvailability, TargetPct: 99.9},
			{Kind: slo.KindPauseP99, MaxMs: 10},
		}},
	}},
}

// requestHeader carries a traced request's ID from the client to the
// handler wrapper, so the spans of one request share it.
const requestHeader = "Perfbench-Request"

// handlerTimer wraps Server.Handler(). While armed it records, per request
// ID, when the handler started and returned.
type handlerTimer struct {
	next  http.Handler
	armed atomic.Bool

	mu    sync.Mutex
	times map[int64][2]int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.armed.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.times[id] = [2]int64{start.UnixNano(), end.UnixNano()}
	h.mu.Unlock()
}

// take returns the recorded handler times and starts a fresh record.
func (h *handlerTimer) take() map[int64][2]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.times
	h.times = make(map[int64][2]int64)
	return t
}

// svcStack is one in-process gcassertd on a loopback listener, as
// cmd/gcassertd serves it, with the two tenants' programs loaded.
type svcStack struct {
	srv     *assertd.Server
	hs      *http.Server
	served  chan error
	timer   *handlerTimer
	tenants []*assertd.Tenant
	clients []*svcClient
	compile []time.Duration
}

func startSvc(seed uint64) (*svcStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &svcStack{
		srv:    assertd.NewServer(assertd.Config{InstanceID: "perfbench"}),
		served: make(chan error, 1),
	}
	st.timer = &handlerTimer{next: st.srv.Handler(), times: make(map[int64][2]int64)}
	st.hs = &http.Server{Handler: st.timer, ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for _, spec := range svcTenants {
		t, err := st.srv.CreateTenant(spec.id, spec.opts)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("create tenant %s: %w", spec.id, err)
		}
		t0 := time.Now()
		if _, err := t.Submit(guestSource(guestNodes(seed), spec.leak)); err != nil {
			st.close()
			return nil, fmt.Errorf("submit program to %s: %w", spec.id, err)
		}
		st.compile = append(st.compile, time.Since(t0))
		st.tenants = append(st.tenants, t)
		st.clients = append(st.clients, newSvcClient(base+"/tenants/"+spec.id+"/drive"))
	}
	return st, nil
}

// close stops the listener and every connection, waits for Serve to
// return, and shuts the tenants down.
func (st *svcStack) close() {
	for _, c := range st.clients {
		c.hc.CloseIdleConnections()
	}
	st.hs.Close()
	<-st.served
	st.srv.Close()
}

// svcClient drives one tenant over one keep-alive connection.
type svcClient struct {
	url string
	hc  *http.Client
}

func newSvcClient(url string) *svcClient {
	return &svcClient{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// reqRecord is one drive request as the client saw it. Times are Unix
// nanoseconds; due equals send in a closed loop.
type reqRecord struct {
	id     int64
	tenant int
	rung   int // index into the ladder, -1 outside it
	traced bool

	due, woke, send, recv int64
	waited                bool // the generator slept until due (a lateness sample)

	status int
	err    string
	res    assertd.DriveResult
}

func (r *reqRecord) failed() bool { return r.status != http.StatusOK || r.res.Failures > 0 }

// do sends one drive request and fills the record's send/recv/result.
func (c *svcClient) do(rec *reqRecord) {
	req, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(`{"requests":1}`))
	if err != nil {
		rec.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if rec.traced {
		req.Header.Set(requestHeader, strconv.FormatInt(rec.id, 10))
	}
	rec.send = time.Now().UnixNano()
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.recv = time.Now().UnixNano()
		rec.err = err.Error()
		return
	}
	rec.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&rec.res)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.recv = time.Now().UnixNano()
	if err != nil {
		rec.err = "decode drive result: " + err.Error()
	}
}

// tally is one tenant's request count and what the output checks found.
type tally struct {
	sent, failed, wrongViol, violations uint64
	firstFailure                        string
}

// add counts one completed request; a request that did not fail must
// report exactly want violations.
func (t *tally) add(r *reqRecord, want uint64) {
	t.sent++
	if r.failed() {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf("status %d failures %d err %q %s", r.status, r.res.Failures, r.err, r.res.LastError)
		}
		return
	}
	t.violations += r.res.Violations
	if r.res.Violations != want {
		t.wrongViol++
	}
}

// gcRecord is the part of a tenant GC event the benchmark keeps.
type gcRecord struct {
	start, total int64 // Unix ns, ns
	phases       [3]phaseRecord
	nphases      int
	marked       int
	deadChecks   uint64
	allocObjects uint64 // cumulative over the tenant's threads
	window       int    // index of the poller window the collection started in
}

type phaseRecord struct {
	name       string
	start, dur int64
}

func newGCRecord(ev *gcassert.GCEvent) gcRecord {
	g := gcRecord{start: ev.StartUnixNs, total: ev.TotalNs, marked: ev.ObjectsMarked}
	for _, ph := range ev.Phases {
		if g.nphases < len(g.phases) {
			g.phases[g.nphases] = phaseRecord{name: ph.Phase, start: ph.StartUnixNs, dur: ph.DurNs}
			g.nphases++
		}
	}
	for _, k := range ev.Kinds {
		if k.Kind == gcassert.KindDead.String() {
			g.deadChecks += k.Checks
		}
	}
	for _, t := range ev.Threads {
		g.allocObjects += t.Objects
	}
	return g
}

// phaseNs returns the named phase's duration (0 when it did not run).
func (g *gcRecord) phaseNs(name string) int64 {
	for _, ph := range g.phases[:g.nphases] {
		if ph.name == name {
			return ph.dur
		}
	}
	return 0
}

// eventPoller reads each tenant's retained GC event ring often enough that
// no event is evicted unread, and keeps the events that started inside one
// of the windows the run opened.
type eventPoller struct {
	tenants []*assertd.Tenant

	mu      sync.Mutex
	windows [][2]int64 // [start, end] in Unix ns; the last may still be open
	events  [][]gcRecord
	next    []uint64
	seen    []bool
	gaps    uint64

	stop chan struct{}
	done chan struct{}
}

func startPoller(tenants []*assertd.Tenant, every time.Duration) *eventPoller {
	p := &eventPoller{
		tenants: tenants,
		events:  make([][]gcRecord, len(tenants)),
		next:    make([]uint64, len(tenants)),
		seen:    make([]bool, len(tenants)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	p.poll()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.poll()
				return
			case <-tick.C:
				p.poll()
			}
		}
	}()
	return p
}

// openWindow starts a window at t: events that start from t on are kept
// until closeWindow ends it.
func (p *eventPoller) openWindow(t int64) {
	p.mu.Lock()
	p.windows = append(p.windows, [2]int64{t, math.MaxInt64})
	p.mu.Unlock()
}

// closeWindow ends the open window at t.
func (p *eventPoller) closeWindow(t int64) {
	p.mu.Lock()
	p.windows[len(p.windows)-1][1] = t
	p.mu.Unlock()
}

// window returns the index of the window t lies in, or -1; p.mu is held.
func (p *eventPoller) window(t int64) int {
	for i, w := range p.windows {
		if t >= w[0] && t <= w[1] {
			return i
		}
	}
	return -1
}

func (p *eventPoller) poll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, t := range p.tenants {
		for _, ev := range t.Events() {
			if p.seen[i] && ev.Seq < p.next[i] {
				continue
			}
			if p.seen[i] && ev.Seq > p.next[i] {
				p.gaps += ev.Seq - p.next[i]
			}
			p.seen[i] = true
			p.next[i] = ev.Seq + 1
			if w := p.window(ev.StartUnixNs); w >= 0 {
				g := newGCRecord(&ev)
				g.window = w
				p.events[i] = append(p.events[i], g)
			}
		}
	}
}

// finish stops the poller, waits for it, and returns the kept events and
// the number of events evicted before they were read.
func (p *eventPoller) finish() ([][]gcRecord, uint64) {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events, p.gaps
}

// svcRun is one run's load generator state.
type svcRun struct {
	st     *svcStack
	seed   uint64
	nextID int64
	// tallies are per tenant; a phase's goroutine for tenant i is the only
	// writer of tallies[i] while the phase runs.
	tallies []tally
}

// wantViolations is the violation count each request of a tenant reports.
func wantViolations(tenant int) uint64 {
	if svcTenants[tenant].leak {
		return 1
	}
	return 0
}

// sent returns the requests sent so far; call it between phases.
func (r *svcRun) sent() uint64 {
	var n uint64
	for _, t := range r.tallies {
		n += t.sent
	}
	return n
}

// closedLoop has every client send back to back for d. It returns the
// requests completed and the seconds from the first send to the last
// response.
func (r *svcRun) closedLoop(d time.Duration, traced bool) (n int, secs float64) {
	deadline := time.Now().Add(d)
	first := make([]int64, len(r.st.clients))
	last := make([]int64, len(r.st.clients))
	count := make([]int, len(r.st.clients))
	var wg sync.WaitGroup
	for i, c := range r.st.clients {
		wg.Add(1)
		go func(i int, c *svcClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rec := reqRecord{id: atomic.AddInt64(&r.nextID, 1), tenant: i, rung: -1, traced: traced}
				c.do(&rec)
				if count[i] == 0 {
					first[i] = rec.send
				}
				last[i] = rec.recv
				count[i]++
				r.tallies[i].add(&rec, wantViolations(i))
			}
		}(i, c)
	}
	wg.Wait()
	for _, c := range count {
		n += c
	}
	return n, float64(slices.Max(last)-slices.Min(first)) / 1e9
}

// schedule returns the Poisson arrival offsets of one tenant on one rung:
// the tenant's share of the rung's aggregate rate, over d.
func schedule(seed uint64, rung, tenant int, rps float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(mixSeed(seed ^ uint64(rung)<<16 ^ uint64(tenant)<<32))))
	rate := rps / float64(len(svcTenants))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openLoop runs one ladder rung: each client sends on its own Poisson
// schedule, and every request is timed from when it was due.
func (r *svcRun) openLoop(rung int, rps float64, d time.Duration, traced bool) []*reqRecord {
	start := time.Now().Add(10 * time.Millisecond)
	perClient := make([][]*reqRecord, len(r.st.clients))
	for i := range r.st.clients {
		for _, off := range schedule(r.seed, rung, i, rps, d) {
			perClient[i] = append(perClient[i], &reqRecord{
				id: atomic.AddInt64(&r.nextID, 1), tenant: i, rung: rung, traced: traced,
				due: start.Add(off).UnixNano(),
			})
		}
	}
	var wg sync.WaitGroup
	for i, c := range r.st.clients {
		wg.Add(1)
		go func(i int, c *svcClient) {
			defer wg.Done()
			for _, rec := range perClient[i] {
				if wait := time.Until(time.Unix(0, rec.due)); wait > 0 {
					sleep(wait)
					rec.waited = true
				}
				rec.woke = time.Now().UnixNano()
				c.do(rec)
				r.tallies[i].add(rec, wantViolations(i))
			}
		}(i, c)
	}
	wg.Wait()
	return slices.Concat(perClient...)
}
