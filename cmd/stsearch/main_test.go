package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// testCorpus is a minimal topix-format corpus: a quiet background plus a
// localized "earthquake" burst in Peru at weeks 4-6, so the regional and
// temporal miners disagree on nothing but produce patterns.
func testCorpus() string {
	var b strings.Builder
	b.WriteString(`{"kind":"topix","streams":["Peru","Japan"],"timeline":10}` + "\n")
	week := func(stream string, w int, counts string) {
		b.WriteString(`{"stream":"` + stream + `","time":` + itoa(w) + `,"counts":{` + counts + `},"event":0}` + "\n")
	}
	for w := 0; w < 10; w++ {
		week("Peru", w, `"politics":2,"weather":1`)
		week("Japan", w, `"markets":2,"weather":1`)
	}
	for w := 4; w <= 6; w++ {
		for i := 0; i < 4; i++ {
			week("Peru", w, `"earthquake":3,"rescue":1`)
		}
	}
	return b.String()
}

func itoa(v int) string {
	return string(rune('0' + v))
}

// runSearch drives the CLI end to end and returns exit code, stdout and
// stderr.
func runSearch(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(testCorpus()), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestKindDefaultsRegionalWithoutWarning: without -kind the regional
// model answers, quietly.
func TestKindDefaultsRegionalWithoutWarning(t *testing.T) {
	code, _, stderr := runSearch(t, "-q", "earthquake")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "regional engine built") {
		t.Errorf("default engine is not regional; stderr:\n%s", stderr)
	}
	if strings.Contains(stderr, "deprecated") {
		t.Errorf("spurious deprecation warning:\n%s", stderr)
	}
}

// TestKindSelectsModel: -kind picks the burstiness model by pattern or
// paper name, and the retired -engine alias is an unknown flag.
func TestKindSelectsModel(t *testing.T) {
	code, stdout, stderr := runSearch(t, "-kind", "tb", "-q", "earthquake")
	if code != 0 || !strings.Contains(stderr, "temporal engine built") || !strings.Contains(stdout, "doc") {
		t.Errorf("-kind tb: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, _ := runSearch(t, "-engine", "temporal", "-q", "earthquake"); code != 2 {
		t.Errorf("-engine: exit %d, want usage error 2", code)
	}
}

// TestUsageErrors: a missing query and an unknown kind are usage errors
// (exit 2) before any corpus is read.
func TestUsageErrors(t *testing.T) {
	if code := run([]string{"-kind", "nope", "-q", "x"}, strings.NewReader(""), io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown kind: exit %d, want 2", code)
	}
	if code := run(nil, strings.NewReader(""), io.Discard, io.Discard); code != 2 {
		t.Errorf("missing -q: exit %d, want 2", code)
	}
}
