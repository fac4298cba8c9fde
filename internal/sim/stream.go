package sim

import "sync/atomic"

// The stream's sizes (DESIGN.md §22).
const (
	// streamBatchLen is the number of values one batch carries from the
	// helper goroutine to the consumer. A hand-off costs a channel
	// receive and, when no helper runs, a goroutine spawn: a microsecond
	// or so, against tens of nanoseconds to draw one value, so a batch
	// spreads it over hundreds of draws. Batches of 256 gave about two
	// thirds of the gain of 512 on amoeba-day.
	streamBatchLen = 512
	// streamBatches is the number of batches a stream recycles: the
	// consumer reads one while the helper fills the other. Together they
	// hold 8 KB, allocated on the first draw.
	streamBatches = 2
)

// Stream hands out, in order, the values a fill function draws from a
// private RNG, and draws them ahead of the consumer on a helper
// goroutine (DESIGN.md §22). The values depend only on the RNG's seed and
// the fill function, and the consumer takes them in the order they were
// drawn, so each is bit-identical to the draw it stands for, made at the
// moment the consumer needs it.
//
// A helper runs only while a batch waits to be filled. The consumer
// hands each spent batch back and starts a helper if none runs; the
// helper fills the batches handed back, in order, and exits when none is
// left. So a stream needs no Close: an abandoned stream's helper finishes
// at most streamBatches fills and exits.
//
// Like the simulator, a stream belongs to one goroutine at a time: Next
// must not be called concurrently.
type Stream struct {
	// The consumer's side: cur is the batch Next reads, nil before the
	// first draw, and i the index of its next value; NewStream sets i to
	// streamBatchLen, so the first Next advances.
	cur *[streamBatchLen]float64
	i   int
	// full carries filled batches to the consumer in fill order. pending
	// counts the batches waiting to be filled, the one being filled
	// included; the helper exits when it takes the count to zero.
	full    chan *[streamBatchLen]float64
	pending atomic.Int32
	// The helper's side: it alone draws from rng, and fills bufs in ring
	// order, bufs[next] first. help is the method value every spawn
	// starts, built once, so a spawn allocates nothing.
	rng  *RNG
	fill func(r *RNG, buf []float64)
	bufs *[streamBatches][streamBatchLen]float64
	next int
	help func()
}

// NewStream returns a stream of the values fill draws from r. The stream
// takes r over: nothing else may draw from it afterwards. Each fill call
// sets every value of buf, whose length is even, continuing where the last
// call stopped. fill runs on the helper goroutine, so it must touch
// nothing but r and buf, and it must not panic: nothing could recover it.
// It panics if r or fill is nil.
func NewStream(r *RNG, fill func(r *RNG, buf []float64)) *Stream {
	if r == nil || fill == nil {
		panic("sim: NewStream with a nil RNG or fill function")
	}
	return &Stream{rng: r, fill: fill, i: streamBatchLen}
}

// StdNormals is the fill function of a stream of standard normals: it
// sets every value of buf to r.StdNormal(), in order.
func StdNormals(r *RNG, buf []float64) {
	for i := range buf {
		buf[i] = r.StdNormal()
	}
}

// Next returns the stream's next value. It waits only if the helper has
// not yet filled the next batch. The first call allocates the batches and
// starts the first helper.
//
//amoeba:noalloc
func (s *Stream) Next() float64 {
	if s.i == streamBatchLen {
		s.advance()
	}
	v := s.cur[s.i]
	s.i++
	return v
}

// advance hands the spent batch back to be refilled, starting a helper if
// none runs, and takes the next filled batch, waiting while the helper
// fills it. The first call builds the batches and hands them all over.
func (s *Stream) advance() {
	n := int32(1)
	if s.cur == nil {
		s.bufs = new([streamBatches][streamBatchLen]float64)
		s.full = make(chan *[streamBatchLen]float64, streamBatches)
		s.help = s.refill
		n = streamBatches
	}
	if s.pending.Add(n) == n {
		//amoeba:allow goroleak the helper exits once pending falls to zero, after at most streamBatches fills; TestStreamLeavesNoGoroutine is the runtime check
		go s.help()
	}
	s.cur = <-s.full
	s.i = 0
}

// refill is the helper goroutine's body: it fills the batches handed
// back, in ring order, passes each to the consumer, and returns when no
// batch waits. The channel holds every batch there is, so a send never
// blocks.
func (s *Stream) refill() {
	for {
		b := &s.bufs[s.next]
		s.fill(s.rng, b[:])
		s.next = (s.next + 1) % streamBatches
		s.full <- b
		if s.pending.Add(-1) == 0 {
			return
		}
	}
}
