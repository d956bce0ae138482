package genome

import (
	"bytes"
	"strings"
	"testing"

	"pimassembler/internal/stats"
)

func TestReadFASTA(t *testing.T) {
	in := ">seq1 description\nACGT\nACGT\n\n>seq2\nTTTT\n"
	recs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Name != "seq1 description" || recs[0].Seq.String() != "ACGTACGT" {
		t.Fatalf("record 0: %q %q", recs[0].Name, recs[0].Seq.String())
	}
	if recs[1].Name != "seq2" || recs[1].Seq.String() != "TTTT" {
		t.Fatalf("record 1: %+v", recs[1])
	}
}

func TestReadFASTARejectsLeadingData(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n>x\nACGT\n")); err == nil {
		t.Fatal("data before header accepted")
	}
}

func TestReadFASTARejectsAmbiguous(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader(">x\nACGN\n")); err == nil {
		t.Fatal("N base accepted")
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := stats.NewRNG(21)
	recs := []Record{
		{Name: "a", Seq: GenerateGenome(200, rng)},
		{Name: "b", Seq: GenerateGenome(69, rng)}, // not a multiple of the wrap width
		{Name: "c", Seq: GenerateGenome(70, rng)},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records", len(back))
	}
	for i := range recs {
		if back[i].Name != recs[i].Name || !back[i].Seq.Equal(recs[i].Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadFASTQ(t *testing.T) {
	in := "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+r2\nIIII\n"
	recs, err := readAll(strings.NewReader(in), FormatFASTQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "r1" || recs[0].Seq.String() != "ACGT" {
		t.Fatalf("records %+v", recs)
	}
	if recs[1].Seq.String() != "GGCC" {
		t.Fatalf("record 1 seq %q", recs[1].Seq.String())
	}
}

func TestReadFASTQTruncated(t *testing.T) {
	for _, in := range []string{
		"@r1\nACGT\n+\n",          // missing quality
		"@r1\nACGT\n",             // missing separator
		"@r1\n",                   // missing sequence
		"r1\nACGT\n+\nIIII\n",     // bad header
		"@r1\nACGT\nIIII\nIIII\n", // bad separator
	} {
		if _, err := readAll(strings.NewReader(in), FormatFASTQ); err == nil {
			t.Errorf("malformed FASTQ accepted: %q", in)
		}
	}
}

func TestReadFASTQEmpty(t *testing.T) {
	recs, err := readAll(strings.NewReader(""), FormatFASTQ)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty stream: %v, %d records", err, len(recs))
	}
}
