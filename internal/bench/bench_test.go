package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 32 {
		t.Fatalf("registered experiments = %d, want 32", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	// Ordered by number.
	for i := 1; i < len(all); i++ {
		if idNum(all[i-1].ID) >= idNum(all[i].ID) {
			t.Errorf("ordering broken at %s", all[i].ID)
		}
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("e2"); !ok || e.ID != "E2" {
		t.Errorf("ByID case-insensitive lookup failed: %v %v", e, ok)
	}
	if _, ok := ByID("E999"); ok {
		t.Error("phantom experiment")
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// checks that each produces non-trivial tabular output.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	cfg := Config{Quick: true, Seed: 42}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 80 {
				t.Errorf("%s output suspiciously short:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "--") {
				t.Errorf("%s output has no table:\n%s", e.ID, out)
			}
		})
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("a", "bbbb")
	tbl.Row(1, 2.5)
	tbl.Row("xx", "y")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[0], "bbbb") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestConfigScale(t *testing.T) {
	c := Config{}
	if c.Scale(100, 10, 5) != 100 {
		t.Error("full scale")
	}
	c.Quick = true
	if c.Scale(100, 10, 5) != 10 {
		t.Error("quick scale")
	}
	if c.Scale(100, 1000, 7) != 7 {
		t.Error("min clamp")
	}
}
