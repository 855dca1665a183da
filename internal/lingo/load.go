package lingo

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// LoadThesaurus reads thesaurus relations from a simple line-oriented
// format, one relation per line:
//
//	relation <TAB> term-a <TAB> term-b
//
// where relation is one of "synonym", "related", "acronym" (term-a is the
// short form) or "hypernym" (term-a generalizes term-b). Blank lines and
// lines starting with '#' are ignored. The format is what a domain expert
// can maintain in a spreadsheet export — the tuning loop the paper's
// conclusion envisions ("a useful tool for tuning existing schema match
// algorithms").
func LoadThesaurus(r io.Reader) (*Thesaurus, error) {
	t := NewThesaurus()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("lingo: thesaurus line %d: want 3 tab-separated fields, got %d", lineNo, len(parts))
		}
		rel := strings.ToLower(strings.TrimSpace(parts[0]))
		a, b := strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2])
		if a == "" || b == "" {
			return nil, fmt.Errorf("lingo: thesaurus line %d: empty term", lineNo)
		}
		switch rel {
		case "synonym":
			t.AddSynonym(a, b)
		case "related":
			t.AddRelated(a, b)
		case "acronym":
			t.AddAcronym(a, b)
		case "hypernym":
			t.AddHypernym(a, b)
		default:
			return nil, fmt.Errorf("lingo: thesaurus line %d: unknown relation %q", lineNo, rel)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lingo: thesaurus: %w", err)
	}
	return t, nil
}
