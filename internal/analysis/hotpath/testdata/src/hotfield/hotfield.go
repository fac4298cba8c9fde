// Package hotfield exercises the field-sensitive func-value flow layer
// for hotpath: callbacks stored in struct fields — by composite literal,
// field assignment, constructor return, slices and maps of funcs, and
// config-to-engine field flow — are walked transitively with "via field"
// chains, while tainted fields (opaque right-hand sides, external
// values, escaped addresses) resolve to nothing and interface-typed
// fields stay the devirtualizer's business.
package hotfield

import (
	"fmt"
	"os"
	"sync"

	"amoeba/internal/sim"
	"hotfieldx"
)

var mu sync.Mutex

func drain() { fmt.Println("drain") }

func slept() { _ = os.Remove("slept") }

// engine is the canonical case: a callback bound at construction and
// invoked later through the field. Without the field-flow layer the call
// resolved to nothing and hotpath passed silently.
type engine struct {
	onDrain func()
}

func newEngine() *engine {
	return &engine{onDrain: drain}
}

//amoeba:hotpath
func (e *engine) pump() {
	e.onDrain() // want `hot path engine\.pump reaches fmt\.Println \(writer I/O in the event loop\) via field engine\.onDrain => drain`
}

// schedule registers the field-stored callback with the simulator; the
// callback-root walk resolves the argument through the same field edges.
func schedule(s *sim.Simulator, e *engine) {
	s.At(1, e.onDrain) // want `sim\.At callback field engine\.onDrain => drain reaches fmt\.Println \(writer I/O in the event loop\) via field engine\.onDrain => drain`
}

// copied reads the field into a local first; the local resolves through
// its field source.
//
//amoeba:hotpath
func (e *engine) copied() {
	f := e.onDrain
	f() // want `hot path engine\.copied reaches fmt\.Println \(writer I/O in the event loop\) via func value f => field engine\.onDrain => drain`
}

// poller stores a function literal in the field; the literal's body is
// walked in its defining package's context.
type poller struct {
	onTick func()
}

func newPoller() *poller {
	return &poller{onTick: func() { _ = os.Remove("tick") }}
}

//amoeba:hotpath
func (p *poller) tick() {
	p.onTick() // want `hot path poller\.tick reaches os\.Remove \(file I/O in the event loop\) via field poller\.onTick => function literal`
}

// sched stores a method value.
type gate struct{}

func (g *gate) acquire() {
	mu.Lock()
	mu.Unlock()
}

type sched struct {
	grab func()
}

func newSched(g *gate) *sched {
	return &sched{grab: g.acquire}
}

//amoeba:hotpath
func (s *sched) run() {
	s.grab() // want `hot path sched\.run reaches sync\.Mutex\.Lock \(blocking in the single-threaded kernel\) via field sched\.grab => gate\.acquire`
}

// swapper receives its callback by plain field assignment.
type swapper struct {
	fn func()
}

func arm(s *swapper) {
	s.fn = drain
}

//amoeba:hotpath
func (s *swapper) fire() {
	s.fn() // want `hot path swapper\.fire reaches fmt\.Println \(writer I/O in the event loop\) via field swapper\.fn => drain`
}

// duo takes its callbacks positionally.
type duo struct {
	a func()
	b func()
}

func newDuo() duo { return duo{drain, slept} }

//amoeba:hotpath
func (d duo) both() {
	d.a() // want `hot path duo\.both reaches fmt\.Println \(writer I/O in the event loop\) via field duo\.a => drain`
	d.b() // want `hot path duo\.both reaches os\.Remove \(file I/O in the event loop\) via field duo\.b => slept`
}

// hooks collects callbacks in a slice field: composite elements and
// append growth union into one per-field edge set, reached by range and
// by index.
type hooks struct {
	fns []func()
}

func newHooks() *hooks {
	h := &hooks{fns: []func(){drain}}
	h.fns = append(h.fns, slept)
	return h
}

//amoeba:hotpath
func (h *hooks) runAll() {
	for _, f := range h.fns {
		f() // want `hot path hooks\.runAll reaches fmt\.Println \(writer I/O in the event loop\) via func value f => field hooks\.fns => drain` `hot path hooks\.runAll reaches os\.Remove \(file I/O in the event loop\) via func value f => field hooks\.fns => slept`
	}
}

//amoeba:hotpath
func (h *hooks) runFirst() {
	h.fns[0]() // want `hot path hooks\.runFirst reaches fmt\.Println \(writer I/O in the event loop\) via field hooks\.fns => drain` `hot path hooks\.runFirst reaches os\.Remove \(file I/O in the event loop\) via field hooks\.fns => slept`
}

// registry keys callbacks in a map field.
type registry struct {
	byName map[string]func()
}

func newRegistry() *registry {
	r := &registry{byName: map[string]func(){"drain": drain}}
	r.byName["sleep"] = slept
	return r
}

//amoeba:hotpath
func (r *registry) invoke(k string) {
	r.byName[k]() // want `hot path registry\.invoke reaches fmt\.Println \(writer I/O in the event loop\) via field registry\.byName => drain` `hot path registry\.invoke reaches os\.Remove \(file I/O in the event loop\) via field registry\.byName => slept`
}

// config threads a callback into sink through field-to-field flow.
type config struct {
	OnDrain func()
}

var defaults = config{OnDrain: drain}

type sink struct {
	onDrain func()
}

func newSink() *sink {
	return &sink{onDrain: defaults.OnDrain}
}

//amoeba:hotpath
func (s *sink) drainNow() {
	s.onDrain() // want `hot path sink\.drainNow reaches fmt\.Println \(writer I/O in the event loop\) via field sink\.onDrain => field config\.OnDrain => drain`
}

// cell is a generic struct: the instance field normalizes to its generic
// origin, so writes to cell[int].produce resolve at cell[T].produce.
type cell[T any] struct {
	produce func() T
}

func stampInt() int {
	n, _ := fmt.Println("cell")
	return n
}

func newIntCell() *cell[int] {
	return &cell[int]{produce: stampInt}
}

//amoeba:hotpath
func readCell(c *cell[int]) int {
	return c.produce() // want `hot path readCell reaches fmt\.Println \(writer I/O in the event loop\) via field cell\.produce => stampInt`
}

// crossField resolves a literal stored by a dependency package's
// constructor: the body is walked in hotfieldx's type context.
//
//amoeba:hotpath
func crossField(g *hotfieldx.Gauge) int64 {
	return g.Sample() // want `hot path crossField reaches fmt\.Println \(writer I/O in the event loop\) via field Gauge\.Sample => function literal`
}

// tainted receives an opaque caller value: the binding set is
// unknowable, so the field yields no edges and the walk stays quiet.
type tainted struct {
	fn func()
}

func setTainted(t *tainted, f func()) {
	t.fn = f
}

//amoeba:hotpath
func (t *tainted) call() {
	t.fn()
}

// opaque receives a call result.
type opaque struct {
	fn func()
}

func lookup() func() { return drain }

func wire(o *opaque) {
	o.fn = lookup()
}

//amoeba:hotpath
func (o *opaque) call() {
	o.fn()
}

// pinned has its field's address taken: writes through the pointer are
// untrackable, so the binding that was seen no longer proves anything.
type pinned struct {
	fn func()
}

func pin(p *pinned) *func() {
	p.fn = drain
	return &p.fn
}

//amoeba:hotpath
func (p *pinned) call() {
	p.fn()
}

// spill grows its slice from an opaque variadic: the container taints.
type spill struct {
	fns []func()
}

func fill(s *spill, extra []func()) {
	s.fns = []func(){drain}
	s.fns = append(s.fns, extra...)
}

//amoeba:hotpath
func (s *spill) run() {
	for _, f := range s.fns {
		f()
	}
}

// carrier holds an interface-typed field: not field-flow territory — the
// call is interface dispatch, devirtualized against the live-type index.
type emitter interface{ Emit() }

type loud struct{}

func (loud) Emit() { fmt.Println("loud") }

var liveEmitter emitter = loud{}

type carrier struct {
	e emitter
}

//amoeba:hotpath
func (c *carrier) emit() {
	c.e.Emit() // want `hot path carrier\.emit reaches fmt\.Println \(writer I/O in the event loop\) via dynamic dispatch on emitter\.Emit => loud\.Emit`
}

// quiet reaches a deliberate trace line through a field edge; the
// origin-line annotation suppresses it for every root that arrives.
type quiet struct {
	fn func() int64
}

func newQuiet() *quiet {
	return &quiet{fn: guardedStamp}
}

func guardedStamp() int64 {
	//amoeba:allow hotpath deliberate trace line behind a field-stored callback
	n, _ := fmt.Println("guarded")
	return int64(n)
}

//amoeba:hotpath
func (q *quiet) read() int64 {
	return q.fn()
}
