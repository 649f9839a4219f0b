package textproc

import (
	"reflect"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	tk := NewTokenizer()
	got := tk.Tokenize("The earthquake struck Costa Rica on Thursday.")
	want := []string{"earthquake", "struck", "costa", "rica", "thursday"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	tk := NewTokenizer()
	if got := tk.Tokenize(""); got != nil {
		t.Fatalf("empty text: got %v", got)
	}
	if got := tk.Tokenize("   \t\n "); got != nil {
		t.Fatalf("whitespace: got %v", got)
	}
}

func TestTokenizeStopwords(t *testing.T) {
	tk := NewTokenizer()
	got := tk.Tokenize("the and of with")
	if got != nil {
		t.Fatalf("all-stopword text: got %v", got)
	}
}

func TestTokenizeHyphenAndApostrophe(t *testing.T) {
	tk := NewTokenizer()
	got := tk.Tokenize("medium-scale quake; Zimbabwe's PM")
	want := []string{"mediumscale", "quake", "zimbabwes", "pm"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeTrailingHyphen(t *testing.T) {
	tk := NewTokenizer()
	got := tk.Tokenize("broken- word")
	want := []string{"broken", "word"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	plain := NewTokenizer()
	if got := plain.Tokenize("2009 earthquake 7"); !reflect.DeepEqual(got, []string{"earthquake"}) {
		t.Fatalf("numbers should drop: got %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	tk := NewTokenizer()
	got := tk.Tokenize("São Paulo: 地震 reported")
	want := []string{"são", "paulo", "地震", "reported"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeCaseFolding(t *testing.T) {
	tk := NewTokenizer()
	got := tk.Tokenize("OBAMA Obama obama")
	want := []string{"obama", "obama", "obama"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
