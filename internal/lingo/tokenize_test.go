package lingo

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"OrderNo", []string{"order", "no"}},
		{"PurchaseDate", []string{"purchase", "date"}},
		{"Unit Of Measure", []string{"unit", "of", "measure"}},
		{"Unit_Of-Measure", []string{"unit", "of", "measure"}},
		{"UOM", []string{"uom"}},
		{"Item#", []string{"item", "number"}},
		{"PONumber", []string{"po", "number"}},
		{"billTo", []string{"bill", "to"}},
		{"address2", []string{"address", "2"}},
		{"ISBN13Code", []string{"isbn", "13", "code"}},
		{"dc:creator", []string{"dc", "creator"}},
		{"", nil},
		{"   ", nil},
		{"a", []string{"a"}},
		{"XMLSchema", []string{"xml", "schema"}},
		{"first.last", []string{"first", "last"}},
		{"(x,y)", []string{"x", "y"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("Unit_Of-Measure"); got != "unitofmeasure" {
		t.Fatalf("Normalize = %q", got)
	}
	if got := Normalize("OrderNo"); got != "orderno" {
		t.Fatalf("Normalize = %q", got)
	}
}

func TestFirstLetters(t *testing.T) {
	if got := FirstLetters([]string{"unit", "of", "measure"}); got != "uom" {
		t.Fatalf("FirstLetters = %q", got)
	}
	if got := FirstLetters(nil); got != "" {
		t.Fatalf("FirstLetters(nil) = %q", got)
	}
}

// Property: tokens are non-empty, lowercase, and their concatenated letters
// and digits equal the lowercased letters and digits of the input.
func TestTokenizeProperties(t *testing.T) {
	keep := func(s string) string {
		var b strings.Builder
		for _, r := range strings.ToLower(s) {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	prop := func(s string) bool {
		if strings.ContainsRune(s, '#') {
			return true // '#' expands to the word "number", changing letters
		}
		toks := Tokenize(s)
		var joined strings.Builder
		for _, tok := range toks {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
			joined.WriteString(tok)
		}
		return keep(joined.String()) == keep(s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
