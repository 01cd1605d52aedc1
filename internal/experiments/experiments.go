// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is addressable by the figure/table ID
// `cmd/experiments list` prints, runs the corresponding workload
// against the relevant system models (and the live in-process cluster for
// the fault-tolerance experiments), and prints the same rows/series the
// paper reports.
//
// A scale parameter in (0, 1] shrinks durations, function counts, and
// sweep densities so the same experiments can run as quick `go test`
// benchmarks; scale 1 reproduces the paper-sized runs.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the figure/table identifier ("fig7", "azure500", ...).
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes the experiment at the given scale, writing the
	// regenerated rows/series to w.
	Run func(w io.Writer, scale float64) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiment with the given ID at the given scale.
func Run(w io.Writer, id string, scale float64) error {
	e, ok := Get(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (use `list`)", id)
	}
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("experiments: scale %v out of (0, 1]", scale)
	}
	fmt.Fprintf(w, "=== %s: %s (scale %.2f) ===\n", e.ID, e.Title, scale)
	return e.Run(w, scale)
}

// table is a minimal aligned-column text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) addRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 10000:
		return fmt.Sprintf("%.0f", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for i, h := range t.header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for i := range t.header {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	io.WriteString(w, b.String())
}

// scaleInt shrinks n by scale with a floor.
func scaleInt(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}
