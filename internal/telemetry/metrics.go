package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float-valued counter (e.g.
// attributed seconds). Add is lock-free: a CAS loop over the value's IEEE
// bits, the standard trick for atomic float accumulation.
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments by v (v must be >= 0 to keep the counter monotonic).
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add increments by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a settable float-valued instantaneous value (ratios, burn
// rates). Set/Value are atomic over the value's IEEE bits.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one metric label pair.
type Label struct{ Name, Value string }

// series is one labeled time series within a family.
type series struct {
	labels   string // rendered {k="v",...} suffix, "" when unlabeled
	counter  *Counter
	fcounter *FloatCounter
	gauge    *Gauge
	fgauge   *FloatGauge
	hist     *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name+labels pair returns the same metric, so hot paths may look metrics
// up lazily.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// labelEscaper escapes a label value per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, labelEscaper.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for name+labels, verifying the type.
func (r *Registry) lookup(name, help, typ string, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	ls := renderLabels(labels)
	for _, s := range f.series {
		if s.labels == ls {
			return s
		}
	}
	s := &series{labels: ls}
	f.series = append(f.series, s)
	return s
}

// Counter finds or creates a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// FloatCounter finds or creates a float-valued counter. It renders as a
// Prometheus counter; a name may hold integer or float series, not both.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	s := r.lookup(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter != nil {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as float counter (was integer)", name))
	}
	if s.fcounter == nil {
		s.fcounter = &FloatCounter{}
	}
	return s.fcounter
}

// Gauge finds or creates a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// FloatGauge finds or creates a float-valued gauge. It renders as a
// Prometheus gauge; a name may hold integer or float series, not both.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	s := r.lookup(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge != nil {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as float gauge (was integer)", name))
	}
	if s.fgauge == nil {
		s.fgauge = &FloatGauge{}
	}
	return s.fgauge
}

// Histogram finds or creates a histogram over bounds (seconds, ascending).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, "histogram", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// histLabels splices the le label into an existing rendered label set.
func histLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series by
// label set, so output is deterministic. Safe to call while metrics are
// being updated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type famCopy struct {
		family
		ss []*series
	}
	fams := make([]famCopy, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		ss := append([]*series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		fams = append(fams, famCopy{family: *f, ss: ss})
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.ss {
			var err error
			switch {
			case s.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.fcounter != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fcounter.Value()))
			case s.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			case s.fgauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fgauge.Value()))
			case s.hist != nil:
				err = writeHist(w, f.name, s.labels, s.hist)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, name, labels string, h *Histogram) error {
	// A quantile summary rides along as a comment: the text exposition
	// format ignores comment lines that are not HELP/TYPE, so scrapers are
	// unaffected while a human curl gets the percentiles for free.
	if p50, p95, p99 := h.Summary(); h.Count() > 0 {
		if _, err := fmt.Fprintf(w, "# %s%s summary: p50=%v p95=%v p99=%v max=%v\n",
			name, labels, p50, p95, p99, h.Max()); err != nil {
			return err
		}
	}
	counts := h.snapshot()
	exemplars := h.exemplars()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, histLabels(labels, formatFloat(b)),
			cum, exemplarSuffix(exemplars, i)); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, histLabels(labels, "+Inf"),
		cum, exemplarSuffix(exemplars, len(counts)-1)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum().Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// exemplarSuffix renders a bucket's trace exemplar in OpenMetrics syntax
// (" # {trace_id=\"...\"} value timestamp"), or "" when the bucket has
// none. Prometheus's text parser ignores the suffix; OpenMetrics scrapers
// and humans get a trace ID that resolves against the trace store.
func exemplarSuffix(ex map[int]Exemplar, bucket int) string {
	e, ok := ex[bucket]
	if !ok {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %s",
		e.TraceID, formatFloat(e.Value), formatFloat(float64(e.UnixNs)/1e9))
}
