package genome

import (
	"fmt"
	"testing"

	"pimassembler/internal/stats"
)

// refParseBase and refFromString are the per-base parser FromString was
// before it packed a byte at a time: a switch per letter, SetBase per base.
func refParseBase(c byte) (Base, error) {
	switch c {
	case 'A', 'a':
		return A, nil
	case 'C', 'c':
		return C, nil
	case 'G', 'g':
		return G, nil
	case 'T', 't', 'U', 'u':
		return T, nil
	default:
		return 0, fmt.Errorf("genome: invalid base %q", c)
	}
}

func refFromString(s string) (*Sequence, error) {
	seq := NewSequence(len(s))
	for i := 0; i < len(s); i++ {
		b, err := refParseBase(s[i])
		if err != nil {
			return nil, fmt.Errorf("position %d: %w", i, err)
		}
		seq.SetBase(i, b)
	}
	return seq, nil
}

func TestParseBaseTableMatchesSwitch(t *testing.T) {
	for c := 0; c < 256; c++ {
		got, gotErr := ParseBase(byte(c))
		want, wantErr := refParseBase(byte(c))
		if got != want || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("ParseBase(%q) = %v, %v; per-letter switch gives %v, %v", byte(c), got, gotErr, want, wantErr)
		}
	}
}

// TestFromStringMatchesPerBaseReference: the packed result, or the error
// text with its position, equals the per-base reference for random strings
// of every length mod 4 — clean, with one invalid byte at every offset, and
// with several (the first must be the one reported).
func TestFromStringMatchesPerBaseReference(t *testing.T) {
	rng := stats.NewRNG(0xBA5E)
	const letters = "ACGTacgtUu"
	const invalid = "NnXx-*. \x00\xff1"
	check := func(text []byte) {
		t.Helper()
		want, wantErr := refFromString(string(text))
		for _, parse := range []func() (*Sequence, error){
			func() (*Sequence, error) { return FromString(string(text)) },
			func() (*Sequence, error) { return parseBases(text) },
		} {
			got, gotErr := parse()
			switch {
			case wantErr != nil:
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%q: error %v, reference %v", text, gotErr, wantErr)
				}
			case gotErr != nil:
				t.Fatalf("%q: unexpected error %v", text, gotErr)
			case !got.Equal(want) || string(got.packed) != string(want.packed):
				t.Fatalf("%q: packed %x, reference %x", text, got.packed, want.packed)
			}
		}
	}
	for n := 0; n <= 41; n++ {
		text := make([]byte, n)
		for i := range text {
			text[i] = letters[rng.Intn(len(letters))]
		}
		check(text)
		for at := 0; at < n; at++ {
			bad := append([]byte(nil), text...)
			bad[at] = invalid[rng.Intn(len(invalid))]
			check(bad)
			if later := at + 1 + rng.Intn(4); later < n {
				bad[later] = invalid[rng.Intn(len(invalid))]
				check(bad)
			}
		}
	}
}
