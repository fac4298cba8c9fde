// Package hotuser exercises hotpath: forbidden APIs reachable from
// annotated functions and simulator callbacks are flagged at the call
// edge — including through devirtualized interface dispatch and
// func-valued locals — while pure formatting, wall clocks and global
// rand (nodeterminism's rules), and dispatch on interfaces with no live
// implementer are not.
package hotuser

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"amoeba/internal/sim"
	"hothelper"
)

var mu sync.Mutex

// Fire stats a file directly.
//
//amoeba:noalloc
func Fire() {
	_, _ = os.Stat("fire") // want `hot path Fire calls os\.Stat \(file I/O in the event loop\)`
}

// Tick reads the wall clock and draws from the global rand source: both
// are nodeterminism's rules, so hotpath stays quiet.
//
//amoeba:hotpath
func Tick() {
	_ = time.Now()
	_ = rand.Int()
}

// Locked blocks on a mutex.
//
//amoeba:hotpath
func Locked() {
	mu.Lock() // want `hot path Locked calls sync\.Mutex\.Lock \(blocking in the single-threaded kernel\)`
	mu.Unlock()
}

// Transitive reaches the wall clock through a local helper.
//
//amoeba:hotpath
func Transitive() int64 {
	return stamp() // want `hot path Transitive reaches fmt\.Println \(writer I/O in the event loop\) via stamp`
}

func stamp() int64 {
	fmt.Println("stamp")
	return 0
}

// CrossPackage reaches file I/O through an imported package.
//
//amoeba:hotpath
func CrossPackage() []byte {
	return hothelper.ReadConfig() // want `hot path CrossPackage reaches os\.ReadFile \(file I/O in the event loop\) via hothelper\.ReadConfig`
}

// Formats may build strings but not write them.
//
//amoeba:hotpath
func Formats(v int) string {
	fmt.Println(v) // want `hot path Formats calls fmt\.Println \(writer I/O in the event loop\)`
	return fmt.Sprintf("%d", v)
}

// Schedule roots the callbacks it hands to the simulator.
func Schedule(s *sim.Simulator) {
	s.After(1, func() {
		_ = os.Remove("after") // want `hot path sim\.After callback calls os\.Remove`
	})
	s.At(2, cleanCallback)
	s.Every(3, dirtyCallback)         // want `sim\.Every callback dirtyCallback reaches os\.Stat \(file I/O in the event loop\) via dirtyCallback`
	s.AtStamp(4, s.Reserve(), expire) // want `sim\.AtStamp callback expire reaches os\.Remove \(file I/O in the event loop\) via expire`
}

func cleanCallback() { _ = hothelper.Pure(1) }

func dirtyCallback() { _, _ = os.Stat("dirty") }

// expire is scheduled only through AtStamp, as the serverless idle
// reclaim deadline is.
func expire() { _ = os.Remove("lease") }

// ticker carries a method used as a callback value.
type ticker struct{}

func (t *ticker) fire() {
	mu.Lock()
	mu.Unlock()
}

// ScheduleMethod roots a bound method callback.
func ScheduleMethod(s *sim.Simulator, t *ticker) {
	s.At(1, t.fire) // want `sim\.At callback ticker\.fire reaches sync\.Mutex\.Lock \(blocking in the single-threaded kernel\) via ticker\.fire`
}

// doer models dispatch with no live implementer: quietDoer is declared
// but never instantiated, so the RTA narrowing keeps the dispatch
// edgeless (plain class-hierarchy analysis would have flagged it).
type doer interface{ Do() }

type quietDoer struct{}

func (quietDoer) Do() { fmt.Println("do") }

// Dynamic stays quiet: no instantiated type implements doer.
//
//amoeba:hotpath
func Dynamic(d doer) {
	d.Do()
}

// emitter has exactly one live implementer, so dispatch devirtualizes.
type emitter interface{ Emit() }

type loudEmitter struct{}

func (loudEmitter) Emit() { fmt.Println("emit") }

// newEmitter instantiates loudEmitter, making it live for the index.
func newEmitter() emitter { return loudEmitter{} }

// Dispatch resolves the interface call against the live implementer.
//
//amoeba:hotpath
func Dispatch(e emitter) {
	e.Emit() // want `hot path Dispatch reaches fmt\.Println \(writer I/O in the event loop\) via dynamic dispatch on emitter\.Emit => loudEmitter\.Emit`
}

// FuncValue calls through a local bound to a named function.
//
//amoeba:hotpath
func FuncValue() int64 {
	f := stamp
	return f() // want `hot path FuncValue reaches fmt\.Println \(writer I/O in the event loop\) via func value f => stamp`
}

// AliasValue follows a local alias chain to the binding.
//
//amoeba:hotpath
func AliasValue() int64 {
	f := stamp
	g := f
	return g() // want `hot path AliasValue reaches fmt\.Println \(writer I/O in the event loop\) via func value g => stamp`
}

// BoundMethod calls through a local bound to a method value.
//
//amoeba:hotpath
func BoundMethod(t *ticker) {
	g := t.fire
	g() // want `hot path BoundMethod reaches sync\.Mutex\.Lock \(blocking in the single-threaded kernel\) via func value g => ticker\.fire`
}

// ParamValue calls through a parameter: the binding set is unknowable,
// so the tracking abandons the variable instead of guessing.
//
//amoeba:hotpath
func ParamValue(f func() int64) int64 {
	return f()
}

// Retargeted loses the binding the moment the variable's address
// escapes; no resolution, no finding.
//
//amoeba:hotpath
func Retargeted() int64 {
	f := stamp
	retarget(&f)
	return f()
}

func retarget(p *func() int64) { _ = p }

// SchedulePoll binds a literal to a local and schedules it by name; the
// literal's body roots through the binding (both registrations resolve
// to the same body, deduplicated).
func SchedulePoll(s *sim.Simulator) {
	var poll func()
	poll = func() {
		fmt.Println("poll") // want `hot path sim\.After callback calls fmt\.Println \(writer I/O in the event loop\)`
		s.After(1, poll)
	}
	s.After(2, poll)
}

// stampAll is a generic helper; calls to an instantiation must resolve
// to its origin declaration or the edge is silently lost.
func stampAll[T any](v T) int64 {
	fmt.Println(v)
	return 0
}

// Generic calls an explicit instantiation.
//
//amoeba:hotpath
func Generic() int64 {
	return stampAll[int](1) // want `hot path Generic reaches fmt\.Println \(writer I/O in the event loop\) via stampAll`
}

// box carries a method on a generic type.
type box[T any] struct{ v T }

func (b *box[T]) stampIt() int64 {
	fmt.Println(b.v)
	return 0
}

// GenericMethod calls a method of an instantiated generic type.
//
//amoeba:hotpath
func GenericMethod(b *box[int]) int64 {
	return b.stampIt() // want `hot path GenericMethod reaches fmt\.Println \(writer I/O in the event loop\) via box\.stampIt`
}

// Box has two type parameters; its root is named by the receiver's
// type without them.
type Box[K comparable, V any] struct{ m map[K]V }

//amoeba:hotpath
func (b *Box[K, V]) M() {
	fmt.Println(len(b.m)) // want `hot path Box\.M calls fmt\.Println`
}

// guarded holds a deliberate file read behind one origin-line
// annotation: every root that reaches it stays quiet.
func guarded() int64 {
	//amoeba:allow hotpath deliberate one-shot config read, annotated once at the origin
	b, _ := os.ReadFile("cfg")
	return int64(len(b))
}

//amoeba:hotpath
func UsesGuardedA() int64 { return guarded() }

//amoeba:hotpath
func UsesGuardedB() int64 { return guarded() }

// Allowed documents a deliberate trace line.
//
//amoeba:hotpath
func Allowed() {
	//amoeba:allow hotpath debug trace, compiled out of release builds
	fmt.Println("allowed")
}

// Unmarked is not a root; nothing is reported.
func Unmarked() { fmt.Println("unmarked") }
