package obs

// copies holds events by value, one slice per kind. It is the one place
// events are copied: an emitter lends its event to the sinks only until
// Consume returns, so a sink that keeps an event keeps a copy made by
// keep (JSONLWriter's batches and Buffer) or by clone (Ring).
type copies struct {
	queries    []QueryComplete
	colds      []ColdStart
	decisions  []DecisionEvent
	switches   []SwitchSpan
	heartbeats []HeartbeatSample
	meters     []MeterSample
	phases     []PhaseSpan
}

// keep appends a copy of ev to its kind's slice and returns a pointer to
// the copy. A slice that grows moves to a new array, but the copies in
// the old one stay intact, so earlier pointers stay valid until reset.
// An event outside the closed taxonomy cannot be copied and is returned
// as is; the JSONL encoder reads only its type, to name it in an error.
func (c *copies) keep(ev Event) Event {
	switch e := ev.(type) {
	case *QueryComplete:
		c.queries = append(c.queries, *e)
		return &c.queries[len(c.queries)-1]
	case *ColdStart:
		c.colds = append(c.colds, *e)
		return &c.colds[len(c.colds)-1]
	case *DecisionEvent:
		c.decisions = append(c.decisions, *e)
		return &c.decisions[len(c.decisions)-1]
	case *SwitchSpan:
		c.switches = append(c.switches, *e)
		return &c.switches[len(c.switches)-1]
	case *HeartbeatSample:
		c.heartbeats = append(c.heartbeats, *e)
		return &c.heartbeats[len(c.heartbeats)-1]
	case *MeterSample:
		c.meters = append(c.meters, *e)
		return &c.meters[len(c.meters)-1]
	case *PhaseSpan:
		c.phases = append(c.phases, *e)
		return &c.phases[len(c.phases)-1]
	default:
		return ev
	}
}

// reset empties every slice and keeps its capacity: later keeps
// overwrite the copies, so pointers keep returned are invalid after it.
func (c *copies) reset() {
	c.queries = c.queries[:0]
	c.colds = c.colds[:0]
	c.decisions = c.decisions[:0]
	c.switches = c.switches[:0]
	c.heartbeats = c.heartbeats[:0]
	c.meters = c.meters[:0]
	c.phases = c.phases[:0]
}

// clone returns a copy of ev on the heap of its own.
func clone(ev Event) Event {
	var c copies
	return c.keep(ev)
}
