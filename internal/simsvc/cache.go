package simsvc

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
)

// Store is the content-addressed result cache: a bounded in-memory LRU in
// front of an optional on-disk store. Keys are spec hashes; values are
// marshalled Result payloads. The LRU bounds memory, the disk layer keeps
// every result ever computed, and an LRU-evicted entry silently reloads
// from disk on its next request.
type Store struct {
	mu    sync.Mutex
	max   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // value: *entry
	dir   string                   // "" = memory only
}

// entry is one cached result, and what a finished job reads its result and
// spec from. An entry does not change once made: the store puts a new one in
// an old one's place, so a job goes on reading what it finished with, whether
// the store still holds it or not.
type entry struct {
	hash    string
	payload []byte
	// rendered is the payload as a reply carries it (appendResult): nil until
	// the entry's first hit produces it, dropped with the entry. An entry that
	// was only ever Put — a result executed and never asked for again — holds
	// no second copy.
	rendered []byte
	// spec is the normalized spec the hash is of, once a job has supplied it
	// (Put is given none). It is every job's of that hash, because equal
	// hashes mean equal normalized specs (TestCanonicalCoversEveryField).
	spec RunSpec
	// echo is spec as a job's reply carries it (renderSpec): nil until the
	// lookup that first gives the entry both rendered and spec makes it,
	// dropped with the entry. A hit's reply encodes neither it nor the payload.
	echo []byte
	// err is a failed job's error. Such an entry is the job's own; no store
	// holds it.
	err string
}

// hasSpec reports whether a job has supplied e's spec: a normalized spec
// always names its scheme.
func (e *entry) hasSpec() bool { return e.spec.Scheme != "" }

// NewStore builds a store holding up to maxEntries payloads in memory
// (minimum 1), persisting to dir when non-empty (created if missing).
func NewStore(maxEntries int, dir string) (*Store, error) {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{
		max:   maxEntries,
		order: list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
	}, nil
}

// Get returns the payload cached for hash, consulting memory first and
// then disk (promoting a disk hit back into the LRU). The returned slice
// is shared — callers must not mutate it.
func (s *Store) Get(hash string) ([]byte, bool) {
	e, ok := s.lookup(hash, nil)
	if !ok {
		return nil, false
	}
	return e.payload, true
}

// lookup is Get returning the entry, rendered, and carrying spec if spec is
// not nil, and then its echo too. An entry's first hit renders it (and the
// echo, once the entry has a spec), which is also where a payload is
// found not to be one JSON document — a file truncated or damaged on disk, or
// whatever an executor handed Put. Such a payload is a miss, not a hit nobody
// can encode: the entry is dropped, its file renamed <hash>.json.corrupt and
// kept for inspection, and the caller executes the spec again, whose Put
// replaces the file. Every later hit costs one map lookup, as before.
func (s *Store) lookup(hash string, spec *RunSpec) (*entry, bool) {
	s.mu.Lock()
	el, ok := s.items[hash]
	var e *entry
	if ok {
		s.order.MoveToFront(el)
		e = el.Value.(*entry)
	}
	s.mu.Unlock()
	if ok && e.rendered != nil && (spec == nil || e.hasSpec()) {
		return e, true
	}
	fresh := &entry{hash: hash}
	if ok {
		*fresh = *e
	} else {
		if s.dir == "" {
			return nil, false
		}
		var err error
		if fresh.payload, err = os.ReadFile(s.path(hash)); err != nil {
			return nil, false
		}
	}
	if fresh.rendered == nil {
		// Rendered outside the lock: two first hits at once both render,
		// and the second insert replaces the first's entry with its equal.
		var err error
		if fresh.rendered, err = renderResult(fresh.payload); err != nil {
			s.dropCorrupt(hash, err)
			return nil, false
		}
	}
	if spec != nil && !fresh.hasSpec() {
		fresh.spec = *spec
	}
	if fresh.hasSpec() && fresh.echo == nil {
		fresh.echo = renderSpec(fresh.spec)
	}
	s.insert(fresh)
	return fresh, true
}

// dropCorrupt forgets an entry whose payload did not render and moves its
// file, if it has one, out of Get's way.
func (s *Store) dropCorrupt(hash string, cause error) {
	s.mu.Lock()
	if el, ok := s.items[hash]; ok && el.Value.(*entry).rendered == nil {
		s.order.Remove(el)
		delete(s.items, hash)
	}
	s.mu.Unlock()
	kept := ""
	if s.dir != "" {
		switch err := os.Rename(s.path(hash), s.path(hash)+".corrupt"); {
		case err == nil:
			kept = ", file kept as " + hash + ".json.corrupt"
		case !errors.Is(err, fs.ErrNotExist):
			kept = ", " + err.Error()
		}
	}
	log.Printf("simsvc: cache entry %s is not a JSON document (%v): dropped%s; the spec runs again", hash, cause, kept)
}

// Put caches a payload in memory and, when configured, on disk. The disk
// write goes through a temp file + rename so a crashed server never leaves
// a truncated result to be served later.
func (s *Store) Put(hash string, payload []byte) error {
	_, err := s.put(hash, payload, nil)
	return err
}

// put is Put with the spec the hash is of, when the caller has it, returning
// the entry it stored in memory whether or not the disk write failed.
func (s *Store) put(hash string, payload []byte, spec *RunSpec) (*entry, error) {
	e := &entry{hash: hash, payload: payload}
	if spec != nil {
		e.spec = *spec
	}
	s.insert(e)
	if s.dir == "" {
		return e, nil
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return e, err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return e, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return e, err
	}
	return e, os.Rename(tmp.Name(), s.path(hash))
}

// insert places an entry at the LRU front, in the place of the one it
// replaces, evicting from the back past capacity.
func (s *Store) insert(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.hash]; ok {
		el.Value = e
		s.order.MoveToFront(el)
		return
	}
	s.items[e.hash] = s.order.PushFront(e)
	for s.order.Len() > s.max {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.items, back.Value.(*entry).hash)
	}
}

// Len reports the in-memory entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// path is the on-disk location for a hash. Hashes are 16 hex digits, so
// the name needs no escaping.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// flightGroup coalesces concurrent executions of the same key: the first
// caller runs fn, later callers block and share its return. This is what
// makes two identical specs submitted concurrently cost one simulation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	ent  *entry
	err  error
}

// do invokes fn once per key at a time; shared reports whether this caller
// piggybacked on another's execution. A waiter whose ctx is cancelled stops
// waiting and gets ctx.Err(), but the execution it piggybacked on is NOT
// cancelled: it keeps running for the remaining waiters and still populates
// the cache. This is what makes hedged requests safe — cancelling the losing
// hedge abandons only that caller's wait, never the shared run.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*entry, error)) (ent *entry, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.ent, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("simsvc: run panicked: %v", r)
			ent, err = nil, c.err
		}
		close(c.done)
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}()
	c.ent, c.err = fn()
	return c.ent, c.err, false
}
