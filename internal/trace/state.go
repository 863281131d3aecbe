package trace

import "fmt"

// Snapshot support for the trace observers. A warm-start sweep runs the
// shared prefix once with observers attached, captures their cursors, and
// rewinds them before each forked variant so every variant's artifacts
// contain the prefix records exactly as a cold run would have produced
// them.

// GanttState is the captured segment log of a Gantt recorder. Opaque:
// it only flows back into LoadState on the same recorder.
type GanttState struct {
	segments []Segment
}

// SaveState captures the recorded segments.
func (g *Gantt) SaveState() GanttState {
	return GanttState{segments: append([]Segment(nil), g.Segments...)}
}

// LoadState rewinds the recorder to a captured segment log.
func (g *Gantt) LoadState(st GanttState) {
	g.Segments = append(g.Segments[:0], st.segments...)
}

// PerfettoState is the captured cursor of a Perfetto exporter: the
// row-assignment table, the record count and the store length. Opaque: it
// only flows back into LoadState on the same exporter.
type PerfettoState struct {
	tids    map[string]int
	nextTid int
	n       int
	mark    int
}

// SaveState captures the exporter cursor.
func (p *Perfetto) SaveState() PerfettoState {
	tids := make(map[string]int, len(p.tids))
	for k, v := range p.tids {
		tids[k] = v
	}
	return PerfettoState{tids: tids, nextTid: p.nextTid, n: p.n, mark: p.base + len(p.cur)}
}

// LoadState rewinds the exporter to a captured cursor, truncating the
// store back to the captured length. Bytes below the mark stay where they
// are, so one state can be loaded again and again; records written after
// it are overwritten. Bytes already written to a sink cannot be taken
// back: rewinding past them is an error Close reports.
func (p *Perfetto) LoadState(st PerfettoState) {
	clear(p.tids)
	for k, v := range st.tids {
		p.tids[k] = v
	}
	p.nextTid = st.nextTid
	p.n = st.n
	switch {
	case st.mark > p.base+len(p.cur):
		p.err = fmt.Errorf("trace: cannot rewind forward to byte %d of a %d-byte store", st.mark, p.base+len(p.cur))
	case st.mark >= p.base:
		p.cur = p.cur[:st.mark-p.base]
	case p.w != nil:
		p.err = fmt.Errorf("trace: cannot rewind to byte %d: %d bytes already written", st.mark, p.base)
	default:
		p.truncate(st.mark)
	}
}

// truncate makes the sealed segment holding byte mark the current one, cut
// back to mark, and drops the segments after it.
func (p *Perfetto) truncate(mark int) {
	off := 0
	for i, s := range p.segs {
		if mark < off+len(s) {
			p.cur = s[:mark-off]
			clear(p.segs[i:])
			p.segs = p.segs[:i]
			p.base = off
			return
		}
		off += len(s)
	}
}
