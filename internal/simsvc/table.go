package simsvc

import (
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// record is a finished job: one fixed-size slot of the job table. It owns
// nothing on the heap but its request ID. Everything else a view of it shows
// is reached through ent, the entry the job's hash resolved to — the store's,
// shared by every job of that hash and kept alive by them after the store has
// dropped it, or, for a failed job, one of its own with its spec and error —
// so the collector follows two pointers per record, and the second mostly to
// an entry it has marked already.
type record struct {
	reqID  string
	ent    *entry
	seq    int64
	spans  [maxSpans]span // in recorded order; 0 ends the list
	cached bool
	failed bool
}

// spanNames are the names a job records spans under, in the order it records
// them; a record keeps a span as its name's index and its microseconds. A
// span under any other name is not kept.
var spanNames = [...]string{"queue-wait", "cache-lookup", "encode", "execute", "cache-store", "coalesce"}

const (
	cacheLookup = 1 // spanNames[cacheLookup] is "cache-lookup"
	// maxSpans is the most spans one job records: every name but "coalesce",
	// which a job records instead of running the simulation itself.
	maxSpans = len(spanNames) - 1
)

// span is one recorded span: its duration in microseconds above three bits
// holding its name's index in spanNames plus one, so that no span is 0.
type span int64

func (r *record) addSpan(name int, us int64) {
	for i := range r.spans {
		if r.spans[i] == 0 {
			r.spans[i] = span(us<<3 | int64(name+1))
			return
		}
	}
}

// setSpans keeps a running job's spans in the record.
func (r *record) setSpans(list []telemetry.Span) {
	for _, sp := range list {
		for name, n := range spanNames {
			if n == sp.Name {
				r.addSpan(name, sp.DurUS)
				break
			}
		}
	}
}

// view rebuilds the JobView the job had when it finished; callers hold the
// scheduler's lock.
func (r *record) view() JobView {
	v := JobView{
		ID:        jobID(r.seq),
		SpecHash:  r.ent.hash,
		Spec:      r.ent.spec,
		Status:    StatusDone,
		Cached:    r.cached,
		RequestID: r.reqID,
	}
	n := 0
	for n < maxSpans && r.spans[n] != 0 {
		n++
	}
	if n > 0 {
		v.Spans = make([]telemetry.Span, n)
		for i, sp := range r.spans[:n] {
			v.Spans[i] = telemetry.Span{Name: spanNames[sp&7-1], DurUS: int64(sp >> 3)}
		}
	}
	if r.failed {
		v.Status, v.Error = StatusFailed, r.ent.err
	} else {
		v.Result, v.rendered, v.echo = r.ent.payload, r.ent.rendered, r.ent.echo
	}
	return v
}

// jobTable holds the finished jobs in finish order: a ring of records grown
// with use up to JobTableCap and then overwritten oldest first, and an index
// from a job's sequence number to its slot. Neither holds a pointer but the
// records' own two.
type jobTable struct {
	recs  []record // the ring; len is its size
	head  int      // the oldest record's slot
	n     int      // records held
	index map[int64]uint32
}

func (t *jobTable) get(seq int64) (*record, bool) {
	slot, ok := t.index[seq]
	if !ok {
		return nil, false
	}
	return &t.recs[slot], true
}

// evictOldest forgets the oldest finished job.
func (t *jobTable) evictOldest() {
	delete(t.index, t.recs[t.head].seq)
	t.recs[t.head] = record{}
	t.head = (t.head + 1) % len(t.recs)
	t.n--
}

// push adds the newest finished job and returns its slot. A full ring doubles
// until it has JobTableCap slots; one that has them forgets its oldest job.
func (t *jobTable) push(r record) *record {
	if t.n == len(t.recs) {
		if t.n == JobTableCap {
			t.evictOldest()
		} else {
			t.grow(min(max(2*t.n, 64), JobTableCap))
		}
	}
	slot := (t.head + t.n) % len(t.recs)
	t.recs[slot] = r
	t.index[r.seq] = uint32(slot)
	t.n++
	return &t.recs[slot]
}

// grow moves the records, oldest first, into a ring of size slots.
func (t *jobTable) grow(size int) {
	if t.index == nil {
		t.index = make(map[int64]uint32)
	}
	recs := make([]record, size)
	for i := range t.n {
		recs[i] = t.recs[(t.head+i)%len(t.recs)]
		if t.head != 0 {
			t.index[recs[i].seq] = uint32(i)
		}
	}
	t.recs, t.head = recs, 0
}

// jobID spells a sequence number as a job ID: "j-" and at least six digits.
func jobID(seq int64) string {
	b := make([]byte, 0, 24)
	b = append(b, "j-"...)
	for d := int64(100000); d > seq && d > 1; d /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, seq, 10))
}

// parseJobID is the sequence number a job ID spelled as jobID spells it
// names; any other spelling names no job.
func parseJobID(id string) (int64, bool) {
	digits, ok := strings.CutPrefix(id, "j-")
	if !ok || len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	return seq, err == nil
}
