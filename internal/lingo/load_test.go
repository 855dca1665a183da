package lingo

import (
	"strings"
	"testing"
)

func TestLoadThesaurus(t *testing.T) {
	src := `# domain thesaurus
synonym	writer	author

related	lines	items
acronym	uom	unit of measure
hypernym	date	purchase date
`
	th, err := LoadThesaurus(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b string
		want Relation
	}{
		{"writer", "author", RelSynonym},
		{"lines", "items", RelRelated},
		{"uom", "unit of measure", RelAcronym},
		{"date", "purchase date", RelHypernym},
		{"purchase date", "date", RelHyponym},
	}
	for _, c := range cases {
		if got := th.Relate(c.a, c.b); got != c.want {
			t.Errorf("Relate(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLoadThesaurusErrors(t *testing.T) {
	cases := map[string]string{
		"bad arity":        "synonym\tonlyone\n",
		"unknown relation": "sibling\ta\tb\n",
		"empty term":       "synonym\t\tb\n",
	}
	for name, src := range cases {
		if _, err := LoadThesaurus(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
