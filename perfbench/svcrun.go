package main

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"gcassert/internal/stats"
)

// runSvc runs the service workload: set-up (repeated), a warm-up, and the
// open-loop rate ladder with closed-loop saturation slices around its
// rungs.
func runSvc(p params) (*report, error) {
	rep := newReport()
	sc := cfg.Svc
	if len(sc.Rungs) < 3 || sc.Rungs[0].Name != "low" || sc.Rungs[1].Name != "mid" || sc.Rungs[2].Name != "high" {
		return nil, errors.New("config.json: the svc ladder must start with the low, mid and high rungs")
	}

	var setups, compile []float64
	var st *svcStack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
			// Every set-up starts with the previous one's memory
			// returned to the OS, as after an idle period: reusing it
			// instead makes the time depend on what the background
			// scavenger happened to return.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		st, err = startSvc(p.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, c := range st.compile {
			compile = append(compile, ms(c))
		}
	}
	defer st.close()

	run := &svcRun{st: st, seed: p.seed, tallies: make([]tally, len(svcTenants))}
	poller := startPoller(st.tenants, eventPoll)
	share := func(f float64) time.Duration { return time.Duration(f * float64(p.dur)) }

	run.closedLoop(share(warmupShare), false)

	// The closed-loop saturation phase runs in slices before, between and
	// after the rungs, so that the throughput samples the host over the
	// whole run rather than over one stretch of it. A traced run
	// alternates untraced and traced slices, so that the tracing overhead
	// is measured under the same machine conditions.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sent0 := run.sent()
	nslices := len(sc.Rungs) + 1
	sliceDur := share(saturationShare) / time.Duration(nslices)
	rungDur := share(1-warmupShare-saturationShare) / time.Duration(len(sc.Rungs))
	var done [2]int
	var secs [2]float64
	var ladder []*reqRecord
	var rungs []rungResult
	var sliceRPS []string
	for k := 0; k < nslices; k++ {
		traced := p.traced && k%2 == 1
		st.timer.armed.Store(traced)
		n, s := run.closedLoop(sliceDur, traced)
		b := 0
		if traced {
			b = 1
		}
		done[b] += n
		secs[b] += s
		sliceRPS = append(sliceRPS, fmt.Sprintf("%.0f", ratio(float64(n), s)))
		if k == len(sc.Rungs) {
			break
		}
		rg := sc.Rungs[k]
		st.timer.armed.Store(p.traced)
		poller.openWindow(time.Now().UnixNano())
		recs := run.openLoop(k, rg.RPS, rungDur, p.traced)
		poller.closeWindow(time.Now().UnixNano())
		ladder = append(ladder, recs...)
		rungs = append(rungs, summarizeRung(rg.Name, recs, rungDur, sc.LatencyLimitMs))
	}
	runtime.ReadMemStats(&ms1)
	measured := run.sent() - sent0
	st.timer.armed.Store(false)
	satUntraced, satTraced := ratio(float64(done[0]), secs[0]), ratio(float64(done[1]), secs[1])
	events, gaps := poller.finish()

	// Output checks: every drive returned 200 without failures, each
	// reported exactly its tenant's violation count, and the tenants'
	// own counters agree with what the clients saw.
	for i, t := range st.tenants {
		tl := run.tallies[i]
		id := svcTenants[i].id
		rep.check(tl.failed == 0, "tenant %s: %d of %d drive requests failed; first: %s", id, tl.failed, tl.sent, tl.firstFailure)
		rep.check(tl.wrongViol == 0, "tenant %s: %d requests reported a violation count other than %d",
			id, tl.wrongViol, wantViolations(i))
		s := t.Stats()
		rep.check(s.Requests == tl.sent, "tenant %s counted %d requests, the client sent %d", id, s.Requests, tl.sent)
		rep.check(s.Violations == tl.violations, "tenant %s counted %d violations, its responses %d", id, s.Violations, tl.violations)
		rep.attempted += int64(tl.sent)
		rep.failed += int64(tl.failed)
	}
	if gaps > 0 {
		rep.note("GC event rings evicted %d events before they were read; the pause samples cover the rest", gaps)
	} else {
		// Each request's guest calls gc() once on a nearly empty heap,
		// so the ladder's collections are its requests, one each.
		var ncol int
		for _, evs := range events {
			ncol += len(evs)
		}
		rep.check(ncol == len(ladder), "the ladder's %d requests ran %d collections, want one each", len(ladder), ncol)
	}

	// Generator lateness: how long after its due time the generator woke
	// for an arrival it had to wait for. It is judged on the rungs below
	// the knee; past it the generator shares a saturated CPU by design.
	var lateness []float64
	for _, r := range ladder {
		if r.waited && isLatencyRung(sc.Rungs[r.rung].Name) {
			lateness = append(lateness, float64(r.woke-r.due)/1e6)
		}
	}
	// Lateness is a property of the host, not an output of the program: a
	// late generator invalidates the ladder's latencies, not the run.
	late50, late99 := stats.Quantile(lateness, 0.50), stats.Quantile(lateness, 0.99)
	ladderValid := late50 <= sc.LatenessP50LimitMs && late99 <= sc.LatenessP99LimitMs
	if !ladderValid {
		rep.note("LADDER INVALID: generator lateness p50 %.3f ms p99 %.3f ms exceeds the limits %g ms / %g ms, so the svc.* latencies measure the generator as much as the service",
			late50, late99, sc.LatenessP50LimitMs, sc.LatenessP99LimitMs)
	}

	var pauses []float64
	for _, evs := range events {
		for _, ev := range evs {
			pauses = append(pauses, float64(ev.total)/1e6)
		}
	}
	rep.e2e["setup_s"] = stats.Median(setups)
	rep.e2e["throughput_ops_s"] = satUntraced
	rep.e2e["gc_pause_mean_ms"] = stats.Mean(pauses)
	rep.e2e["gc_pause_p90_ms"] = stats.Quantile(pauses, 0.90)
	rep.e2e["rss_peak_mib"] = peakRSSMiB()
	rep.e2e["success_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)

	L := rep.layer
	var maxRPS float64
	for _, rr := range rungs {
		rep.note("rung %-5s offered %7.1f rps achieved %7.1f: latency p50 %.3f ms p99 %.3f ms (n=%d, %d beyond p99), tail queue %.3f ms, lateness p99 %.3f ms, backlog=%v within_limit=%v",
			rr.name, rr.offered, rr.achieved, rr.p50, rr.p99, rr.n, rr.n-int(0.99*float64(rr.n)), rr.queueTailMean, rr.late99, rr.backlog, rr.withinLimit)
		if isLatencyRung(rr.name) {
			L["svc.latency_p50_ms."+rr.name] = rr.p50
			L["svc.latency_p99_ms."+rr.name] = rr.p99
		}
		if rr.withinLimit {
			maxRPS = max(maxRPS, rr.achieved)
		}
	}
	L["svc.max_rps_within_slo"] = maxRPS
	L["svc.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	rep.note("svc: saturated throughput %.1f rps; max rps within p99 <= %g ms: %.1f; %d requests; pauses over %d samples: mean %.4f ms, p50 %.4f ms, p90 %.4f ms",
		satUntraced, sc.LatencyLimitMs, maxRPS, rep.attempted, len(pauses), rep.e2e["gc_pause_mean_ms"], stats.Quantile(pauses, 0.50), rep.e2e["gc_pause_p90_ms"])
	rep.note("saturation slices, rps in run order: %s", strings.Join(sliceRPS, " "))
	rep.note("loadgen: lateness p50 %.4f ms p99 %.4f ms over %d timer waits on the low, mid and high rungs (limits %g ms / %g ms)",
		late50, late99, len(lateness), sc.LatenessP50LimitMs, sc.LatenessP99LimitMs)
	L["loadgen.lateness_p50_ms"] = late50
	L["loadgen.lateness_p99_ms"] = late99
	L["loadgen.ladder_valid"] = 0
	if ladderValid {
		L["loadgen.ladder_valid"] = 1
	}
	L["minivm.compile_ms"] = stats.Median(compile)

	// Exact counts over the ladder, whose schedule the seed fixes.
	var ladderViol [2]float64
	var ladderFail float64
	for _, r := range ladder {
		ladderViol[r.tenant] += float64(r.res.Violations)
		if r.failed() {
			ladderFail++
		}
	}
	L["assertd.requests"] = float64(len(ladder))
	L["assertd.failures"] = ladderFail
	L["assertd.violations.clean"] = ladderViol[0]
	L["assertd.violations.observed"] = ladderViol[1]
	L["core.violations"] = ladderViol[0] + ladderViol[1]
	fillCollectorFromEvents(L, events, len(ladder))
	L["go.alloc_bytes_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(measured))
	L["go.gc_cycles_per_op"] = ratio(float64(ms1.NumGC-ms0.NumGC), float64(measured))

	if !p.traced {
		return rep, nil
	}
	var log spanLog
	if err := buildRequestSpans(&log, rep, ladder, st.timer.take(), events); err != nil {
		return nil, err
	}
	self := log.selfTimes()
	for _, name := range []string{"queue", "client", "handler", "drive", "gc", "ownership", "mark", "sweep"} {
		L["self."+name+"_us"] = ratio(float64(self[name])/1e3, float64(len(ladder)))
	}
	L["trace.overhead_pct"] = (satUntraced/satTraced - 1) * 100
	L["trace.spans"] = float64(len(log.spans))
	if err := log.writeJSONL(p.spansPath); err != nil {
		return nil, err
	}
	rep.note("traced: %d requests, %d spans written to %s; saturated throughput untraced %.1f rps, traced %.1f rps",
		len(ladder), len(log.spans), p.spansPath, satUntraced, satTraced)
	return rep, nil
}

// isLatencyRung reports whether a rung is one of the three below the knee
// whose latencies are reported.
func isLatencyRung(name string) bool { return name == "low" || name == "mid" || name == "high" }

// rungResult summarizes one ladder rung.
type rungResult struct {
	name          string
	offered       float64 // arrivals per second of the schedule
	achieved      float64 // completions per second
	n             int
	p50, p99      float64 // latency from due time, ms
	queueTailMean float64 // ms, over the last tenth of arrivals
	late99        float64 // generator lateness p99, ms
	backlog       bool
	failures      int
	withinLimit   bool
}

func summarizeRung(name string, recs []*reqRecord, d time.Duration, limitMs float64) rungResult {
	res := rungResult{name: name, n: len(recs), offered: float64(len(recs)) / d.Seconds()}
	if len(recs) == 0 {
		return res
	}
	var lat []float64
	first, last := recs[0].due, recs[0].recv
	for _, r := range recs {
		lat = append(lat, float64(r.recv-r.due)/1e6)
		first, last = min(first, r.due), max(last, r.recv)
		if r.failed() {
			res.failures++
		}
	}
	res.p50, res.p99 = stats.Quantile(lat, 0.50), stats.Quantile(lat, 0.99)
	var late []float64
	for _, r := range recs {
		if r.waited {
			late = append(late, float64(r.woke-r.due)/1e6)
		}
	}
	res.late99 = stats.Quantile(late, 0.99)
	res.achieved = float64(len(recs)) / (float64(last-first) / 1e9)

	// A growing backlog shows as the rung's last tenth of arrivals waiting
	// in the queue, on average, longer than the latency limit.
	byDue := slices.Clone(recs)
	slices.SortFunc(byDue, func(a, b *reqRecord) int { return cmp.Compare(a.due, b.due) })
	var q []float64
	for _, r := range byDue[len(byDue)-max(len(byDue)/10, 1):] {
		q = append(q, float64(r.send-r.due)/1e6)
	}
	res.queueTailMean = stats.Mean(q)
	res.backlog = res.queueTailMean > limitMs
	res.withinLimit = res.p99 <= limitMs && !res.backlog && res.failures == 0
	return res
}

// fillCollectorFromEvents derives the collector, heap and core layer
// metrics of the service workload from the tenants' GC events; ops is the
// number of requests the events cover.
func fillCollectorFromEvents(L map[string]float64, events [][]gcRecord, ops int) {
	var n, marked, intervals int
	var objs uint64
	var markNs, sweepNs, ownNs, dead float64
	for i, evs := range events {
		var tenantPauses []float64
		for k, ev := range evs {
			// Objects allocated between two collections of one rung
			// window; the saturation slices between windows are left
			// out.
			if k > 0 && evs[k-1].window == ev.window {
				objs += ev.allocObjects - evs[k-1].allocObjects
				intervals++
			}
			n++
			marked += ev.marked
			markNs += float64(ev.phaseNs("mark"))
			sweepNs += float64(ev.phaseNs("sweep"))
			ownNs += float64(ev.phaseNs("ownership"))
			dead += float64(ev.deadChecks)
			tenantPauses = append(tenantPauses, float64(ev.total)/1e3)
		}
		L["tenant.gc_pause_p99_us."+svcTenants[i].id] = stats.Quantile(tenantPauses, 0.99)
	}
	// Every request ends in one collection (an output check of runSvc),
	// so an interval between two collections is one request.
	L["heap.alloc_objects_per_op"] = ratio(float64(objs), float64(intervals))
	L["collector.collections_per_op"] = ratio(float64(n), float64(ops))
	L["collector.mark_ns_per_object"] = ratio(markNs, float64(marked))
	L["collector.objects_marked_per_gc"] = ratio(float64(marked), float64(n))
	L["collector.sweep_us_per_gc"] = ratio(sweepNs/1e3, float64(n))
	L["core.ownership_us_per_gc"] = ratio(ownNs/1e3, float64(n))
	L["core.dead_asserted"] = dead
}

// buildRequestSpans turns the traced ladder requests into span trees —
// request > queue, client > handler > drive > gc > phase — checks that they
// nest, and fills the assertd and minivm layer metrics.
func buildRequestSpans(log *spanLog, rep *report, ladder []*reqRecord, times map[int64][2]int64, events [][]gcRecord) error {
	var handler, drive, httpOver, clientOver, queue, guest []float64
	var pauseSum, driveSum float64
	for _, r := range ladder {
		h, ok := times[r.id]
		if !ok {
			return fmt.Errorf("traced request %d has no handler timing", r.id)
		}
		root := log.add(r.id, -1, "request", r.due, r.recv)
		log.add(r.id, root, "queue", r.due, r.send)
		client := log.add(r.id, root, "client", r.send, r.recv)
		hs := log.add(r.id, client, "handler", h[0], h[1])
		rep.check(h[0] >= r.send && h[1] <= r.recv, "request %d: handler span [%d,%d] not inside client span [%d,%d]",
			r.id, h[0], h[1], r.send, r.recv)

		// The tenant serves one request at a time, so the collections
		// that started inside this handler window are this request's.
		evs := events[r.tenant]
		i, _ := slices.BinarySearchFunc(evs, h[0], func(ev gcRecord, t int64) int { return cmp.Compare(ev.start, t) })
		j := i
		for j < len(evs) && evs[j].start < h[1] {
			j++
		}
		pauses := evs[i:j]

		// The drive's duration is elapsed_ns. Its position inside the
		// handler is not reported, so it is placed to end with its last
		// collection, or at the handler's start plus its duration if
		// that is later.
		e := r.res.ElapsedNs
		rep.check(e <= h[1]-h[0], "request %d: drive %d ns longer than handler %d ns", r.id, e, h[1]-h[0])
		end := h[0] + e
		var sum int64
		for _, ev := range pauses {
			sum += ev.total
			end = max(end, ev.start+ev.total)
		}
		end = min(end, h[1])
		ds := log.add(r.id, hs, "drive", end-e, end)
		for _, ev := range pauses {
			g := log.add(r.id, ds, "gc", ev.start, ev.start+ev.total)
			for _, ph := range ev.phases[:ev.nphases] {
				log.add(r.id, g, ph.name, ph.start, ph.start+ph.dur)
			}
		}
		rep.check(sum <= e, "request %d: GC pauses %d ns exceed drive %d ns", r.id, sum, e)

		hd := float64(h[1] - h[0])
		handler = append(handler, hd/1e3)
		drive = append(drive, float64(e)/1e3)
		httpOver = append(httpOver, (hd-float64(e))/1e3)
		clientOver = append(clientOver, (float64(r.recv-r.send)-hd)/1e3)
		queue = append(queue, float64(r.send-r.due)/1e6)
		guest = append(guest, float64(e-sum)/1e3)
		pauseSum += float64(sum)
		driveSum += float64(e)
	}
	L := rep.layer
	L["assertd.handler_p50_us"] = stats.Quantile(handler, 0.50)
	L["assertd.handler_p99_us"] = stats.Quantile(handler, 0.99)
	L["assertd.drive_p50_us"] = stats.Quantile(drive, 0.50)
	L["assertd.drive_p99_us"] = stats.Quantile(drive, 0.99)
	L["assertd.http_overhead_p50_us"] = stats.Median(httpOver)
	L["assertd.client_overhead_p50_us"] = stats.Median(clientOver)
	L["assertd.queue_p99_ms"] = stats.Quantile(queue, 0.99)
	L["minivm.guest_p50_us"] = stats.Median(guest)
	L["collector.gc_share"] = ratio(pauseSum, driveSum)
	return nil
}
