// Package match implements the pattern-matching engines of the paper:
// the per-flash-channel hardware matcher IP (key-based, at most three
// keywords of at most 16 bytes each, §IV-A/§V-A) and the host-software
// baseline (Boyer–Moore–Horspool, as used by Linux grep in §V-C).
//
// The hardware IP's *results* are computed exactly by a per-key search
// over page-sized chunks fed in file order; each stream carries its
// last bytes, one short of the longest key, across chunk boundaries, so
// matches spanning them are found. Its *timing* is modeled where the data moves (nand.ReadThrough
// charges channel-rate streaming plus the IP-control overhead).
package match

import (
	"bytes"
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

// Automaton is the matcher IP's key set. It finds every occurrence of
// every key, overlapping ones included, by searching for each key in
// turn with the standard library's vectorised bytes.Index.
type Automaton struct {
	keys   [][]byte
	maxLen int
}

// Compile builds a matcher over keys. Keys are matched as raw bytes
// (case-sensitive), like the hardware IP.
func Compile(keys [][]byte) (*Automaton, error) {
	if len(keys) == 0 {
		return nil, ErrEmptyKey
	}
	a := &Automaton{keys: keys}
	for i, k := range keys {
		if len(k) == 0 {
			return nil, fmt.Errorf("%w (key %d)", ErrEmptyKey, i)
		}
		a.maxLen = max(a.maxLen, len(k))
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
// the matcher, so device tasks fail on the same keys the silicon
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

// Stream feeds data through the matcher chunk by chunk, finding
// matches that span chunk boundaries — exactly what the per-channel IP
// does as pages fly by.
type Stream struct {
	a    *Automaton
	pos  int64
	tail []byte // the last maxLen-1 bytes consumed since the last Reset
}

// NewStream starts a fresh scan at stream offset 0.
func (a *Automaton) NewStream() *Stream {
	return &Stream{a: a, tail: make([]byte, 0, a.maxLen-1)}
}

// Reset rewinds the stream to offset off with cleared state.
func (s *Stream) Reset(off int64) {
	s.tail = s.tail[:0]
	s.pos = off
}

// Pos returns the number of bytes consumed so far.
func (s *Stream) Pos() int64 { return s.pos }

// Feed scans chunk, invoking emit for each key occurrence (start
// offset). A match is reported once, by the Feed whose chunk holds its
// last byte, with its true start position even when it began in an
// earlier chunk. Matches are emitted key by key, not in stream order;
// callers count them or sort their positions.
func (s *Stream) Feed(chunk []byte, emit func(Match)) {
	// Seam: matches starting in the carried tail and ending in chunk.
	for i := range s.tail {
		rest := s.tail[i:]
		for ki, k := range s.a.keys {
			if len(k) > len(rest) && bytes.HasPrefix(k, rest) && bytes.HasPrefix(chunk, k[len(rest):]) {
				emit(Match{Pos: s.pos - int64(len(rest)), Key: ki})
			}
		}
	}
	for ki, k := range s.a.keys {
		forEach(chunk, k, func(i int) { emit(Match{Pos: s.pos + int64(i), Key: ki}) })
	}
	// Carry the last maxLen-1 bytes of tail+chunk into the next Feed.
	keep := s.a.maxLen - 1
	if len(chunk) >= keep {
		s.tail = append(s.tail[:0], chunk[len(chunk)-keep:]...)
	} else {
		old := s.tail[max(0, len(s.tail)+len(chunk)-keep):]
		s.tail = append(s.tail[:copy(s.tail, old)], chunk...)
	}
	s.pos += int64(len(chunk))
}

// forEach calls fn with the offset of every occurrence of key in text,
// overlapping occurrences included.
func forEach(text, key []byte, fn func(int)) {
	for i := 0; ; i++ {
		j := bytes.Index(text[i:], key)
		if j < 0 {
			return
		}
		i += j
		fn(i)
	}
}

// Count returns the total number of occurrences of all keys in text.
func (a *Automaton) Count(text []byte) int {
	n := 0
	for _, k := range a.keys {
		forEach(text, k, func(int) { n++ })
	}
	return n
}

// Contains reports whether any key occurs in text.
func (a *Automaton) Contains(text []byte) bool {
	for _, k := range a.keys {
		if bytes.Contains(text, k) {
			return true
		}
	}
	return false
}
