// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is a function from a Config to
// one or more Tables whose rows mirror what the paper reports; absolute
// numbers differ (different hardware, simulated disk, scaled datasets) but
// the shapes — who wins, by what factor, where the crossovers are — are
// the reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies the paper's dataset sizes. 1.0 reproduces paper
	// scale (hours of CPU); the default 0.02 keeps every experiment in
	// seconds while preserving the curves' shapes.
	Scale float64
	// Seed drives all data generation.
	Seed int64
	// PoolPages is the buffer-pool capacity for I/O-cost experiments
	// (<= 0: pager.DefaultPoolPages).
	PoolPages int
	// Queries is the number of random queries per measurement point in the
	// query-performance experiments (<= 0: 50).
	Queries int
	// Context, when non-nil, bounds the run: index builds and query loops
	// abort with its error once it is cancelled or its deadline passes
	// (xseqbench -timeout wires it).
	Context context.Context
}

func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// poll reports the Context's error; experiments call it at measurement
// boundaries (and strided inside sequencing loops) so a -timeout deadline
// aborts long runs promptly instead of only between experiments.
func (c Config) poll() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.02
	}
	return c.Scale
}

func (c Config) queries() int {
	if c.Queries <= 0 {
		return 50
	}
	return c.Queries
}

// scaled applies the scale to a paper-sized count, keeping at least min.
func (c Config) scaled(paperCount, min int) int {
	n := int(float64(paperCount) * c.scale())
	if n < min {
		n = min
	}
	return n
}

// Table is one experiment's output in paper-like tabular form.
type Table struct {
	ID     string // "fig14a", "table7", ...
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Experiment names one reproducible table/figure.
type Experiment struct {
	ID    string
	Short string
	Run   func(Config) ([]*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig14a", "Index size vs dataset size, L3F5A25I0P40, 4 strategies", Figure14a},
		{"fig14b", "Index size vs dataset size, L5F3A40I0P5, 4 strategies", Figure14b},
		{"fig15", "Impact of identical sibling nodes on index size", Figure15},
		{"table5", "XMark index size with identical sibling nodes", Table5},
		{"table6", "XMark index size without identical sibling nodes", Table6},
		{"table7", "Query performance on XMark (Q1-Q3)", Table7},
		{"table8", "Query performance on DBLP: paths vs nodes vs CS", Table8},
		{"fig16a", "CS query time vs dataset size", Figure16a},
		{"fig16b", "CS vs ViST query time vs query length", Figure16b},
		{"fig16c", "I/O cost and time vs query length, no identical siblings", Figure16c},
		{"fig16d", "I/O cost and time vs query length, with identical siblings", Figure16d},
		{"compression", "Index size to compressed data size ratios (Section 6.2)", CompressionRatios},
		{"ablation-pool", "ABLATION: disk accesses vs buffer-pool size", AblationPool},
		{"ablation-valuespace", "ABLATION: value hash space vs collision false positives", AblationValueSpace},
		{"ablation-build", "ABLATION: static sorted build vs dynamic insert + compaction", AblationBuild},
		{"ablation-blocking", "ABLATION: repeat-path vs per-instance blocking (size vs recall)", AblationBlocking},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
