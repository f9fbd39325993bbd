package main

import (
	"os"
	"regexp"
	"slices"
	"testing"
)

// analyzerSection matches a docs/static-analysis.md heading that
// introduces one analyzer.
var analyzerSection = regexp.MustCompile("(?m)^### `([a-z]+)`")

// TestDocListsEveryAnalyzer checks that docs/static-analysis.md has a
// section for exactly the analyzers in suite, so an analyzer can
// neither ship undocumented nor stay documented after it is gone.
func TestDocListsEveryAnalyzer(t *testing.T) {
	doc, err := os.ReadFile("../../docs/static-analysis.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented, shipped []string
	for _, m := range analyzerSection.FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	for _, a := range suite {
		shipped = append(shipped, a.Name)
		if !slices.Contains(documented, a.Name) {
			t.Errorf("analyzer %s has no ### `%s` section in docs/static-analysis.md", a.Name, a.Name)
		}
	}
	for _, name := range documented {
		if !slices.Contains(shipped, name) {
			t.Errorf("docs/static-analysis.md documents %s, which suite does not run", name)
		}
	}
}
