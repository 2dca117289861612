package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citationExemptDirs are the directories whose citations are not
// checked, each with the reason.
var citationExemptDirs = map[string]string{
	"bench": "bench/ changes only together with BENCHMARK.json, in a benchmark change; its stale citations wait for the next one (ROADMAP 29(d))",
}

var (
	// roadmapCitation matches a citation as prose writes it, "ROADMAP
	// item" or "ROADMAP" before an item number and an optional
	// sub-item letter, maybe broken across lines.
	roadmapCitation = regexp.MustCompile(`ROADMAP\s+(?:item\s+)?(\d+)(?:\(([a-z])\))?`)
	// roadmapItem matches the first line of a numbered item.
	roadmapItem = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
)

// TestRoadmapCitations keeps citations of ROADMAP.md honest: every
// ROADMAP item a Go file, DESIGN.md or EXPERIMENTS.md cites by number
// must be a numbered item of the file's "Open items", and a cited
// sub-item letter must appear as "(x)" in that item's text.  A retired
// number is never reused, so a citation of one is stale.
func TestRoadmapCitations(t *testing.T) {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	items := openRoadmapItems(t, string(roadmap))

	var files []string
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." {
			if _, exempt := citationExemptDirs[path]; exempt || strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" {
				return filepath.SkipDir
			}
		}
		if !e.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "DESIGN.md", "EXPERIMENTS.md")

	cited := map[string]bool{}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range roadmapCitation.FindAllStringSubmatch(string(text), -1) {
			num, sub := m[1], m[2]
			cite := num
			if sub != "" {
				cite += "(" + sub + ")"
			}
			cited[cite] = true
			body, open := items[num]
			switch {
			case !open:
				t.Errorf("%s cites ROADMAP %s, which is not an open item", path, cite)
			case sub != "" && !strings.Contains(body, "("+sub+")"):
				t.Errorf("%s cites ROADMAP %s, but item %s has no sub-item (%s)", path, cite, num, sub)
			}
		}
	}
	if len(cited) == 0 {
		t.Fatal("no ROADMAP citation found: the pattern no longer matches how the docs cite items")
	}
	var list []string
	for c := range cited {
		list = append(list, c)
	}
	sort.Strings(list)
	t.Logf("cited: %s", strings.Join(list, ", "))
}

// openRoadmapItems returns the text of each numbered item of ROADMAP.md's
// "Open items" section, keyed by its number.
func openRoadmapItems(t *testing.T, roadmap string) map[string]string {
	_, open, ok := strings.Cut(roadmap, "\n## Open items\n")
	if !ok {
		t.Fatal(`ROADMAP.md has no "## Open items" section`)
	}
	if end := strings.Index(open, "\n## "); end >= 0 {
		open = open[:end]
	}
	items := map[string]string{}
	heads := roadmapItem.FindAllStringSubmatchIndex(open, -1)
	for i, h := range heads {
		end := len(open)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		items[open[h[2]:h[3]]] = open[h[0]:end]
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md's open items have no numbered item")
	}
	return items
}
