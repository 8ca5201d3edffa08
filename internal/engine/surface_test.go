package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// TestStatementSurface pins the exported statement surface so wrappers
// cannot re-accrete: the methods of *DB that take a sqlast.Statement
// or hand back a *Result or *Prepared, plus every method of *Prepared,
// are exactly the boundary, its string convenience, the prepared pair
// with its one execution that binds parameter values, and the five
// describers. Adding a name here means adding a second
// way in; give the existing one an option or a caller-side helper
// instead.
func TestStatementSurface(t *testing.T) {
	want := []string{
		"DB.AnalyzeReport",
		"DB.ExecSQL",
		"DB.Explain",
		"DB.ExplainAnalyzeWithOptions",
		"DB.OperatorCount",
		"DB.PlanShape",
		"DB.PrepareStmt",
		"DB.RunWithOptionsContext",
		"Prepared.RunArgs",
		"Prepared.RunWithOptionsContext",
	}
	stmt := reflect.TypeOf((*sqlast.Statement)(nil)).Elem()
	handles := map[reflect.Type]bool{
		reflect.TypeOf((*Result)(nil)):   true,
		reflect.TypeOf((*Prepared)(nil)): true,
	}
	var got []string
	db := reflect.TypeOf((*DB)(nil))
	for i := 0; i < db.NumMethod(); i++ {
		m := db.Method(i)
		on := false
		for j := 1; j < m.Type.NumIn(); j++ {
			on = on || m.Type.In(j) == stmt
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			on = on || handles[m.Type.Out(j)]
		}
		if on {
			got = append(got, "DB."+m.Name)
		}
	}
	p := reflect.TypeOf((*Prepared)(nil))
	for i := 0; i < p.NumMethod(); i++ {
		got = append(got, "Prepared."+p.Method(i).Name)
	}
	sort.Strings(got)
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("exported statement surface changed:\n got:\n%s\nwant:\n%s", g, w)
	}
}
