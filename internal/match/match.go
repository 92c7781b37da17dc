// Package match implements the pattern-matching engines of the paper:
// the per-flash-channel hardware matcher IP (key-based, at most three
// keywords of at most 16 bytes each, §IV-A/§V-A) and the host-software
// baseline (Boyer–Moore–Horspool, as used by Linux grep in §V-C).
//
// The hardware IP's *results* are computed exactly by a streaming
// Aho–Corasick automaton fed page-sized chunks in file order, so matches
// spanning chunk boundaries are found; its *timing* is modeled where the
// data moves (nand.ReadThrough charges channel-rate streaming plus the
// IP-control overhead).
package match

import (
	"errors"
	"fmt"
)

// Hardware IP limits (paper §V-A).
const (
	MaxKeys   = 3
	MaxKeyLen = 16
)

// Errors returned by pattern validation.
var (
	ErrTooManyKeys = errors.New("match: hardware matcher accepts at most 3 keys")
	ErrKeyTooLong  = errors.New("match: hardware matcher keys are at most 16 bytes")
	ErrEmptyKey    = errors.New("match: empty key")
)

// ValidateHW reports whether keys fit the hardware matcher's limits.
func ValidateHW(keys [][]byte) error {
	if len(keys) == 0 {
		return ErrEmptyKey
	}
	if len(keys) > MaxKeys {
		return fmt.Errorf("%w: got %d", ErrTooManyKeys, len(keys))
	}
	for i, k := range keys {
		if len(k) == 0 {
			return fmt.Errorf("%w (key %d)", ErrEmptyKey, i)
		}
		if len(k) > MaxKeyLen {
			return fmt.Errorf("%w: key %d is %d bytes", ErrKeyTooLong, i, len(k))
		}
	}
	return nil
}

// Automaton is an Aho–Corasick multi-pattern matcher.
type Automaton struct {
	keys [][]byte
	// Dense transition table: next[state][b]. Small for hardware-sized
	// key sets.
	next   [][256]int32
	output [][]int32 // key indexes ending at this state
}

// Compile builds an automaton over keys. Keys are matched as raw bytes
// (case-sensitive), like the hardware IP.
func Compile(keys [][]byte) (*Automaton, error) {
	if len(keys) == 0 {
		return nil, ErrEmptyKey
	}
	for i, k := range keys {
		if len(k) == 0 {
			return nil, fmt.Errorf("%w (key %d)", ErrEmptyKey, i)
		}
	}
	a := &Automaton{keys: keys}
	// Trie construction.
	type node struct {
		children map[byte]int32
		fail     int32
		out      []int32
	}
	nodes := []*node{{children: map[byte]int32{}}}
	for ki, k := range keys {
		cur := int32(0)
		for _, b := range k {
			nxt, ok := nodes[cur].children[b]
			if !ok {
				nxt = int32(len(nodes))
				nodes = append(nodes, &node{children: map[byte]int32{}})
				nodes[cur].children[b] = nxt
			}
			cur = nxt
		}
		nodes[cur].out = append(nodes[cur].out, int32(ki))
	}
	// Failure links via BFS.
	queue := make([]int32, 0, len(nodes))
	for _, c := range nodes[0].children {
		nodes[c].fail = 0
		queue = append(queue, c)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for b, v := range nodes[u].children {
			// Walk the failure chain of u until a state with a b-child
			// exists; that child is v's failure target.
			f := nodes[u].fail
			for {
				if w, ok := nodes[f].children[b]; ok && w != v {
					nodes[v].fail = w
					break
				}
				if f == 0 {
					nodes[v].fail = 0
					break
				}
				f = nodes[f].fail
			}
			nodes[v].out = append(nodes[v].out, nodes[nodes[v].fail].out...)
			queue = append(queue, v)
		}
	}
	// Dense goto function.
	a.next = make([][256]int32, len(nodes))
	a.output = make([][]int32, len(nodes))
	for s := range nodes {
		a.output[s] = nodes[s].out
		for b := 0; b < 256; b++ {
			cur := int32(s)
			for {
				if w, ok := nodes[cur].children[byte(b)]; ok {
					a.next[s][b] = w
					break
				}
				if cur == 0 {
					a.next[s][b] = 0
					break
				}
				cur = nodes[cur].fail
			}
		}
	}
	return a, nil
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(keys ...string) *Automaton {
	bs := make([][]byte, len(keys))
	for i, k := range keys {
		bs[i] = []byte(k)
	}
	a, err := Compile(bs)
	if err != nil {
		panic(err)
	}
	return a
}

// CompileHW compiles string keys for the hardware matcher IP: it
// rejects key sets outside the IP's limits (ValidateHW) before building
// the automaton, so device tasks fail on the same keys the silicon
// would refuse.
func CompileHW(keys []string) (*Automaton, error) {
	bs := make([][]byte, len(keys))
	for i, k := range keys {
		bs[i] = []byte(k)
	}
	if err := ValidateHW(bs); err != nil {
		return nil, err
	}
	return Compile(bs)
}

// Keys returns the compiled key set.
func (a *Automaton) Keys() [][]byte { return a.keys }

// Match is one occurrence: key Key starts at byte offset Pos of the
// stream.
type Match struct {
	Pos int64
	Key int
}

// Stream feeds data through the automaton chunk by chunk, preserving
// state across chunk boundaries — exactly what the per-channel IP does
// as pages fly by.
type Stream struct {
	a     *Automaton
	state int32
	pos   int64
}

// NewStream starts a fresh scan at stream offset 0.
func (a *Automaton) NewStream() *Stream { return &Stream{a: a} }

// Reset rewinds the stream to offset off with cleared state.
func (s *Stream) Reset(off int64) {
	s.state = 0
	s.pos = off
}

// Pos returns the number of bytes consumed so far.
func (s *Stream) Pos() int64 { return s.pos }

// Feed scans chunk, invoking emit for each key occurrence (start
// offset). Matches spanning the previous chunk's tail are reported with
// their true start position.
func (s *Stream) Feed(chunk []byte, emit func(Match)) {
	st := s.state
	a := s.a
	for i, b := range chunk {
		st = a.next[st][b]
		if outs := a.output[st]; len(outs) > 0 {
			end := s.pos + int64(i) + 1
			for _, ki := range outs {
				emit(Match{Pos: end - int64(len(a.keys[ki])), Key: int(ki)})
			}
		}
	}
	s.state = st
	s.pos += int64(len(chunk))
}

// Count scans text once and returns the total number of occurrences of
// all keys.
func (a *Automaton) Count(text []byte) int {
	n := 0
	s := a.NewStream()
	s.Feed(text, func(Match) { n++ })
	return n
}

// Contains reports whether any key occurs in text.
func (a *Automaton) Contains(text []byte) bool {
	st := int32(0)
	for _, b := range text {
		st = a.next[st][b]
		if len(a.output[st]) > 0 {
			return true
		}
	}
	return false
}
