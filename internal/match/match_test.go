package match

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidateHW(t *testing.T) {
	ok := [][]byte{[]byte("a"), []byte("sixteen-bytes..!"), []byte("k")}
	if err := ValidateHW(ok); err != nil {
		t.Fatal(err)
	}
	if err := ValidateHW([][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}); !errors.Is(err, ErrTooManyKeys) {
		t.Fatalf("err=%v", err)
	}
	if err := ValidateHW([][]byte{[]byte("seventeen bytes!!")}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("err=%v", err)
	}
	if err := ValidateHW(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err=%v", err)
	}
}

func TestSingleKeyMatches(t *testing.T) {
	a := MustCompile("needle")
	text := []byte("haystack needle haystack needleneedle")
	var got []int64
	s := a.NewStream()
	s.Feed(text, func(m Match) { got = append(got, m.Pos) })
	want := []int64{9, 25, 31}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMultiKeyAndOverlap(t *testing.T) {
	a := MustCompile("he", "she", "hers")
	var got []Match
	s := a.NewStream()
	s.Feed([]byte("ushers"), func(m Match) { got = append(got, m) })
	// "she" at 1, "he" at 2, "hers" at 2.
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestStreamingAcrossChunkBoundary(t *testing.T) {
	a := MustCompile("boundary")
	text := []byte("xxxxboundaryxxxx")
	for split := 1; split < len(text); split++ {
		s := a.NewStream()
		var got []int64
		s.Feed(text[:split], func(m Match) { got = append(got, m.Pos) })
		s.Feed(text[split:], func(m Match) { got = append(got, m.Pos) })
		if len(got) != 1 || got[0] != 4 {
			t.Fatalf("split=%d got=%v", split, got)
		}
	}
}

func TestStreamResetAndPos(t *testing.T) {
	a := MustCompile("ab")
	s := a.NewStream()
	s.Feed([]byte("ab"), func(Match) {})
	if s.Pos() != 2 {
		t.Fatalf("pos=%d", s.Pos())
	}
	s.Reset(100)
	var got []int64
	s.Feed([]byte("ab"), func(m Match) { got = append(got, m.Pos) })
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("got=%v, want [100]", got)
	}
}

func TestContainsAndCount(t *testing.T) {
	a := MustCompile("1995-01-17", "1995-01-18")
	text := []byte("row|1995-01-17|x\nrow|1995-02-03|y\nrow|1995-01-18|z\n")
	if !a.Contains(text) {
		t.Fatal("should contain")
	}
	if n := a.Count(text); n != 2 {
		t.Fatalf("count=%d", n)
	}
	if a.Contains([]byte("nothing here")) {
		t.Fatal("false positive")
	}
}

func TestHorspoolAgainstBytesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(500) + 10
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.Intn(4))
		}
		m := rng.Intn(6) + 1
		pat := make([]byte, m)
		for i := range pat {
			pat[i] = byte('a' + rng.Intn(4))
		}
		h := NewHorspool(pat)
		got := h.FindAll(text)
		// Reference: scan with bytes.Index repeatedly (overlapping).
		var want []int
		for i := 0; i+m <= n; i++ {
			if bytes.Equal(text[i:i+m], pat) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
		if h.Count(text) != len(want) {
			t.Fatalf("count mismatch")
		}
		if h.Contains(text) != (len(want) > 0) {
			t.Fatalf("contains mismatch")
		}
	}
}

func TestAutomatonEqualsHorspoolProperty(t *testing.T) {
	prop := func(textRaw []byte, patRaw []byte) bool {
		if len(patRaw) == 0 {
			patRaw = []byte{'x'}
		}
		if len(patRaw) > 8 {
			patRaw = patRaw[:8]
		}
		// Constrain alphabet so matches actually occur.
		text := make([]byte, len(textRaw))
		for i, b := range textRaw {
			text[i] = 'a' + b%3
		}
		pat := make([]byte, len(patRaw))
		for i, b := range patRaw {
			pat[i] = 'a' + b%3
		}
		a, err := Compile([][]byte{pat})
		if err != nil {
			return false
		}
		return a.Count(text) == NewHorspool(pat).Count(text)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamChunkingInvariantProperty(t *testing.T) {
	// Matches found must be independent of how the stream is chunked.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text := make([]byte, 2000)
		for i := range text {
			text[i] = byte('a' + rng.Intn(3))
		}
		a := MustCompile("abc", "cab", "aa")
		whole := a.Count(text)
		s := a.NewStream()
		n := 0
		for off := 0; off < len(text); {
			sz := rng.Intn(97) + 1
			if off+sz > len(text) {
				sz = len(text) - off
			}
			s.Feed(text[off:off+sz], func(Match) { n++ })
			off += sz
		}
		return n == whole
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsEmpty(t *testing.T) {
	if _, err := Compile(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err=%v", err)
	}
	if _, err := Compile([][]byte{{}}); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err=%v", err)
	}
}

func TestCompileHW(t *testing.T) {
	a, err := CompileHW([]string{"needle", "pin"})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Contains([]byte("haystack pin")) || a.Contains([]byte("haystack")) {
		t.Fatal("compiled automaton does not match its keys")
	}
	// Compile alone would accept these; the hardware limits must not.
	if _, err := CompileHW([]string{"a", "b", "c", "d"}); !errors.Is(err, ErrTooManyKeys) {
		t.Fatalf("err=%v", err)
	}
	if _, err := CompileHW([]string{"seventeen bytes!!"}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("err=%v", err)
	}
}

// naiveMatches is the reference matcher: bytes.Equal at every offset for
// every key, shared with no code under test. It returns the (Pos, Key)
// multiset as a count per occurrence.
func naiveMatches(text []byte, keys [][]byte) map[Match]int {
	got := map[Match]int{}
	for ki, k := range keys {
		for i := 0; i+len(k) <= len(text); i++ {
			if bytes.Equal(text[i:i+len(k)], k) {
				got[Match{Pos: int64(i), Key: ki}]++
			}
		}
	}
	return got
}

func TestMatcherAgainstNaiveReference(t *testing.T) {
	fixed := [][][]byte{
		{[]byte("aa"), []byte("aab"), []byte("ba")}, // prefix/suffix overlaps
		{[]byte("ab"), []byte("ab")},                // duplicate key
		{[]byte("aaa")},                             // self-overlapping
		{[]byte("abab"), []byte("b")},
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		alpha := 2 + rng.Intn(3)
		randWord := func(n int) []byte {
			w := make([]byte, n)
			for i := range w {
				w[i] = byte('a' + rng.Intn(alpha))
			}
			return w
		}
		keys := fixed[trial%len(fixed)]
		if trial >= len(fixed)*20 {
			keys = make([][]byte, 1+rng.Intn(3))
			for i := range keys {
				keys[i] = randWord(1 + rng.Intn(5))
			}
		}
		a, err := Compile(keys)
		if err != nil {
			t.Fatal(err)
		}
		s := a.NewStream()
		for stream := 0; stream < 2; stream++ {
			text := randWord(rng.Intn(300))
			want := naiveMatches(text, keys)
			total := 0
			for _, n := range want {
				total += n
			}
			if n := a.Count(text); n != total {
				t.Fatalf("trial %d keys %q: Count=%d, reference %d", trial, keys, n, total)
			}
			if c := a.Contains(text); c != (total > 0) {
				t.Fatalf("trial %d keys %q: Contains=%v, reference count %d", trial, keys, c, total)
			}

			// Feed the text in 1..8 random chunks after a Reset to a
			// non-zero base offset; the multiset must equal the reference.
			base := int64(rng.Intn(1000))
			s.Reset(base)
			cuts := []int{0, len(text)}
			for c := rng.Intn(8); c > 0; c-- {
				cuts = append(cuts, rng.Intn(len(text)+1))
			}
			sort.Ints(cuts)
			got := map[Match]int{}
			for i := 1; i < len(cuts); i++ {
				s.Feed(text[cuts[i-1]:cuts[i]], func(m Match) {
					m.Pos -= base
					got[m]++
				})
			}
			if s.Pos() != base+int64(len(text)) {
				t.Fatalf("trial %d: Pos=%d, want %d", trial, s.Pos(), base+int64(len(text)))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d keys %q text %q cuts %v:\n got %v\nwant %v", trial, keys, text, cuts, got, want)
			}
		}
	}
}
