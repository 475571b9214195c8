// Package ckpt is the one description of simulator state run three ways.
// Every stateful component has a Checkpoint method that names each of its
// canonical fields once, by class, against a *C; the C decides what naming a
// field does: append it to a string of words (a snapshot), read it back into the
// live component (a restore), or fold it into the model checker's canonical
// state hash. Derived acceleration state is named nowhere: its owner
// rebuilds it after a restore (DESIGN §7).
//
// The four classes, and what the hash does with each. Two states may hash
// equal only if every future behaviour from them is identical, so that the
// explorer's visited-set merge is sound:
//
//   - State (Int, Bool, Len) is written, read and hashed raw. Round-robin
//     cursors are state: a cursor is only consumed modulo its arbiter's
//     competitor count, so reducing it could merge more states, but the
//     modulus varies with occupancy and a wrong fold would merge states that
//     behave differently. Raw inclusion is unconditionally sound and the
//     extra states are few.
//   - Cycles (Time: timestamps, deadlines, busy-until markers) hash as their
//     distance from now, which is all behaviour depends on. Negative
//     sentinels (-1 "never") are offset below any real distance. The clock
//     itself is unhashed; the caller folds in the phases through which
//     absolute time feeds back (now mod the scan interval, mod the token hop).
//   - Unhashed fields (statistics, latency stamps, ID counters, RNG streams)
//     sit inside `if c.Unhashed()`: written and read, skipped by the hash,
//     because they cannot influence a transition the explorer takes.
//   - Payload references (Ref: messages and packets, shared between queues,
//     buffers and each other) carry the object's own fields at first mention
//     and its number afterwards. Sharing survives, every restore makes fresh
//     objects, and a snapshot holds no pointer: it is immutable and may be
//     restored any number of times, into any network of the same shape.
//
// Pointers to infrastructure (VCs, NIs, templates) are written as indices by
// the package that owns them. Every field is one 64-bit word, and the words
// exist only in memory: nothing outside the process can produce them, so
// there is no version and no validation — a reader that consumes a different
// length than the writer produced is a bug in a Checkpoint method and panics.
// Unequal states can hash equal only by 64-bit collision, which would wrongly
// prune a path; with the state counts involved (well under 2^20) the risk is
// negligible.
package ckpt

import (
	"fmt"

	"repro/internal/fnv1a"
)

const (
	writing = iota
	reading
	hashing
)

// sentinel keeps negative cycle sentinels disjoint from any real distance.
const sentinel = -1 << 40

// C is one pass over a component tree's canonical state.
type C struct {
	mode int
	buf  []uint64 // the words written or to read; pos is how far that has got
	pos  int
	h    uint64
	now  int64

	// The payload table. ids numbers the objects a writer or hasher has
	// mentioned, from 1; objs holds a reader's, by number-1; shared, on a
	// Replay reader, the objects to resolve first mentions to.
	ids    map[any]int
	objs   []any
	shared []any
}

// NewWriter returns a C that writes, with room to start with for the given
// numbers of words and of payload objects (see Size).
func NewWriter(words, objects int) *C {
	return &C{mode: writing, buf: make([]uint64, words), ids: make(map[any]int, objects)}
}

// Size returns how many words a writer has written and how many payload
// objects it met: what to make the next writer over the same state with.
func (c *C) Size() (words, objects int) { return c.pos, len(c.ids) }

// NewReader returns a C that reads words back, making a fresh object for
// every payload reference.
func NewReader(words []uint64) *C { return &C{mode: reading, buf: words} }

// NewHasher returns a C that folds state as of cycle now.
func NewHasher(now int64) *C {
	return &C{mode: hashing, h: fnv1a.Offset, now: now, ids: make(map[any]int)}
}

// Replay returns a reader over what the writer c wrote that resolves payload
// references to the very objects c visited: it restores a component in place
// beside live state that shares them.
func (c *C) Replay() *C {
	shared := make([]any, len(c.ids))
	for p, k := range c.ids {
		shared[k-1] = p
	}
	return &C{mode: reading, buf: c.Words(), shared: shared}
}

// Words returns what a writer has written.
func (c *C) Words() []uint64 { return c.buf[:c.pos] }

// Sum returns a hasher's hash.
func (c *C) Sum() uint64 { return c.h }

// Done panics unless a reader consumed exactly what was written.
func (c *C) Done() {
	if c.pos != len(c.buf) {
		panic(fmt.Sprintf("ckpt: %d words left unread: the Checkpoint methods read less than they wrote", len(c.buf)-c.pos))
	}
}

// Reading reports whether fields are being overwritten from a snapshot: the
// caller must then size variable-length state before naming it and rebuild
// derived state after.
func (c *C) Reading() bool { return c.mode == reading }

// Unhashed guards fields that are part of a snapshot but not of the
// canonical state hash.
func (c *C) Unhashed() bool { return c.mode != hashing }

// put writes or folds one word. It must not be inlined: a function with one
// call in it is as much as the inliner's budget allows, so the functions below
// keep the read on their inlined path and leave everything else to a call.
//
//go:noinline
func (c *C) put(v uint64) {
	if c.mode == hashing {
		c.h = fnv1a.Uint64(c.h, v)
		return
	}
	if c.pos == len(c.buf) {
		c.buf = append(c.buf, make([]uint64, len(c.buf)+64)...)
	}
	c.buf[c.pos] = v
	c.pos++
}

// Integer is any integer type a state field may have.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Int names one integer of state. A restore is mostly this function's read,
// which is why it is spelled out (here and in Bool and Time) to inline at
// every call site, and why it advances an index and does not reslice: storing
// a slice header into c costs a write barrier whenever the collector is
// running, which a loop of restores keeps it doing. Reading more than was
// written is an index panic.
func Int[T Integer](c *C, p *T) {
	if c.mode == reading {
		*p = T(c.buf[c.pos])
		c.pos++
	} else {
		c.put(uint64(*p))
	}
}

// Bool names one flag of state.
func (c *C) Bool(p *bool) {
	if c.mode == reading {
		*p = c.buf[c.pos] != 0
		c.pos++
	} else {
		c.putBool(*p)
	}
}

//go:noinline
func (c *C) putBool(b bool) {
	if b {
		c.put(1)
	} else {
		c.put(0)
	}
}

// Time names one absolute cycle.
func (c *C) Time(p *int64) {
	if c.mode == reading {
		*p = int64(c.buf[c.pos])
		c.pos++
	} else {
		c.putTime(*p)
	}
}

// putTime writes a cycle as it is and folds it as its distance from now.
//
//go:noinline
func (c *C) putTime(t int64) {
	switch {
	case c.mode != hashing:
	case t < 0:
		t += sentinel
	default:
		t -= c.now
	}
	c.put(uint64(t))
}

// Len names the length of variable-length state: n when writing or hashing,
// the written length when reading.
func (c *C) Len(n int) int {
	Int(c, &n)
	return n
}

// Slice names a variable-length slice: its length, then each element through
// each. A restore reuses the backing array where capacity allows and hands
// each zero elements to fill.
func Slice[T any](c *C, s *[]T, each func(*T)) {
	n := c.Len(len(*s))
	if c.mode == reading {
		clear(*s) // drop what the old elements pointed at
		*s = (*s)[:0]
		for len(*s) < n {
			var zero T
			*s = append(*s, zero)
		}
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

// Ref names one reference to a shared payload object, nil included. P's own
// Checkpoint method runs at the first mention.
func Ref[T any, P interface {
	*T
	Checkpoint(*C)
}](c *C, pp *P) {
	if c.mode == reading {
		switch k := c.Len(0); {
		case k == 0:
			*pp = nil
		case k <= len(c.objs):
			*pp = c.objs[k-1].(P)
		case k == len(c.objs)+1:
			var p P = new(T)
			if c.shared != nil {
				p = c.shared[k-1].(P)
			}
			c.objs = append(c.objs, p)
			*pp = p
			p.Checkpoint(c)
		default:
			panic(fmt.Sprintf("ckpt: payload reference %d after %d objects", k, len(c.objs)))
		}
		return
	}
	p := *pp
	if p == nil {
		c.put(0)
	} else if k, seen := c.ids[p]; seen {
		c.put(uint64(k))
	} else {
		c.ids[p] = len(c.ids) + 1
		c.put(uint64(len(c.ids)))
		p.Checkpoint(c)
	}
}
