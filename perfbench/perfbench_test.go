package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of the repository's BENCHMARK.json the program
// must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, perfbench has %d", wl, len(workloads))
	}
	check := func(set string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: perfbench reports %d metrics, BENCHMARK.json lists %d", set, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: perfbench %v, BENCHMARK.json %v", set, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

func TestConfigDocumentsEveryPerLayerMetric(t *testing.T) {
	var doc struct {
		PerLayer []struct {
			Name  string `json:"name"`
			Layer string `json:"layer"`
			Moves string `json:"moves"`
		} `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(configJSON, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range doc.PerLayer {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("config.json per_layer %q lacks its layer or predicted effect", d.Name)
		}
		names = append(names, d.Name)
	}
	for _, m := range perLayer {
		if !slices.Contains(names, m.Name) {
			t.Errorf("per-layer metric %s is not documented in config.json", m.Name)
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("config.json workload %q: unknown or without a reason", w.Name)
		}
	}
	if cfg.HoldoutSeed == cfg.DefaultSeed {
		t.Error("holdout seed equals the default seed")
	}
}

// TestSmokeEveryWorkload runs every workload briefly in both modes and
// checks the result line: correct, the full metric set, valid names, and
// finite values.
func TestSmokeEveryWorkload(t *testing.T) {
	secs := "1"
	if testing.Short() {
		secs = "0.3"
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", secs, "--trace", trace, "--spans", spans}, &out, &errOut)
			if code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s%s", name, trace, code, out.String(), errOut.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%s: last line is not the result: %v", name, trace, err)
				continue
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: correct=%v attempted=%d metrics=%d, want %d",
					name, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !metricName.MatchString(d.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%s: metric %s = %v", name, trace, d.Name, m)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestSeedPlumbing: the same seed repeats the exact counts, another seed
// changes the program's inputs and the arrival schedule.
func TestSeedPlumbing(t *testing.T) {
	for name, w := range map[string]paperWorkload{"paper-jbb": paperJBB, "paper-db-w2": paperDB} {
		counts := func(seed uint64) exactCounts {
			in := w.start(mixSeed(seed))
			in.step()
			return in.counts()
		}
		a, b, c := counts(cfg.DefaultSeed), counts(cfg.DefaultSeed), counts(cfg.HoldoutSeed)
		if a != b {
			t.Errorf("%s: same seed, counts %+v then %+v", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds %d and %d gave identical counts %+v", name, cfg.DefaultSeed, cfg.HoldoutSeed, a)
		}
	}
	d := time.Second
	s1, s2 := schedule(cfg.DefaultSeed, 0, 0, 500, d), schedule(cfg.DefaultSeed, 0, 0, 500, d)
	if !slices.Equal(s1, s2) {
		t.Error("same seed gave different arrival schedules")
	}
	if slices.Equal(s1, schedule(cfg.HoldoutSeed, 0, 0, 500, d)) {
		t.Error("default and holdout seeds gave the same arrival schedule")
	}
	if slices.Equal(s1, schedule(cfg.DefaultSeed, 0, 1, 500, d)) {
		t.Error("both tenants share one arrival schedule")
	}
}

// TestSvcExactCountsRepeat: two traced service runs of one seed and length
// report the same exact counts over the ladder.
func TestSvcExactCountsRepeat(t *testing.T) {
	exact := []string{"assertd.requests", "assertd.violations.observed", "heap.alloc_objects_per_op",
		"collector.collections_per_op", "core.dead_asserted"}
	var got [2]map[string]float64
	for i := range got {
		rep, err := runSvc(params{seed: 6, dur: time.Second, traced: true, spansPath: filepath.Join(t.TempDir(), "spans.jsonl")})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.failures) > 0 {
			t.Fatalf("output checks failed: %v", rep.failures)
		}
		got[i] = rep.layer
	}
	for _, name := range exact {
		if a, b := got[0][name], got[1][name]; a != b || a == 0 {
			t.Errorf("%s: %v then %v, want the same non-zero count", name, a, b)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSvcSpansReconcile: in the traced service run, handler ⊆ client RTT,
// drive ⊆ handler, and a request's GC pauses sum to no more than its drive.
func TestSvcSpansReconcile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	rep, err := runSvc(params{seed: 5, dur: time.Second, traced: true, spansPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.failures) > 0 {
		t.Fatalf("output checks failed: %v", rep.failures)
	}
	spans := readSpans(t, path)
	within := func(c, p span) bool { return c.Start >= p.Start && c.End <= p.End }
	gcSum := make(map[int]int64)
	var drives, gcs int
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Trace != p.Trace {
			t.Fatalf("span %d (%s) has trace %d, its parent %d", s.ID, s.Name, s.Trace, p.Trace)
		}
		switch s.Name {
		case "handler", "drive":
			if !within(s, p) {
				t.Errorf("%s span %d [%d,%d] not inside %s [%d,%d]", s.Name, s.ID, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if s.Name == "drive" {
				drives++
			}
		case "gc":
			gcs++
			gcSum[s.Parent] += s.End - s.Start
		}
	}
	for id, sum := range gcSum {
		if d := spans[id].End - spans[id].Start; sum > d {
			t.Errorf("drive span %d: GC pauses %d ns exceed its %d ns", id, sum, d)
		}
	}
	if drives == 0 || gcs < drives {
		t.Errorf("%d drive spans, %d gc spans: every request collects at least once", drives, gcs)
	}
}

// TestPaperPhasesReconcile: on a paper workload the Observer's phase
// durations sum exactly to the GCStats deltas (checked inside runPaper),
// and every phase span nests inside its gc span inside its iteration.
func TestPaperPhasesReconcile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	rep, err := runPaper(paperJBB, params{seed: 5, dur: 500 * time.Millisecond, traced: true, spansPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.failures) > 0 {
		t.Fatalf("output checks failed: %v", rep.failures)
	}
	spans := readSpans(t, path)
	parentName := map[string]string{"gc": "iteration", "ownership": "gc", "mark": "gc", "sweep": "gc"}
	for _, s := range spans {
		if s.Parent < 0 {
			if s.Name != "iteration" {
				t.Errorf("root span %s, want iteration", s.Name)
			}
			continue
		}
		p := spans[s.Parent]
		if parentName[s.Name] != p.Name {
			t.Errorf("span %s has parent %s", s.Name, p.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s span [%d,%d] not inside %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	var l spanLog
	root := l.add(1, -1, "request", 0, 100)
	c := l.add(1, root, "client", 10, 90)
	l.add(1, c, "handler", 20, 50)
	l.add(1, c, "handler", 40, 60) // overlaps the first: covered once
	l.add(1, c, "handler", 95, 99) // outside its parent: not counted
	got := l.selfTimes()
	want := map[string]int64{"request": 20, "client": 40, "handler": 30 + 20 + 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}
