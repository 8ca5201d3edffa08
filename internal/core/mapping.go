package core

import (
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// mapping is everything Algorithm 1 and the predicate machinery need
// to know about how a relational mapping stores elements; the shared
// translator reaches the two mappings' differences only through it.
// What a schema node's marking decides — whether a path filter can be
// omitted, whether a fragment boundary must be pinned, whether a
// structural join can meet its own context row, whether an element
// carries text — is data on the nodes candidates returns, not a
// method here.
type mapping interface {
	// candidates resolves one fragment's prominent step to the nodes
	// it can select from the context set (fromRoot: from the document
	// roots); more than one splits the SQL (Section 4.4).
	candidates(f *ppf, ctx []*schema.Node, fromRoot bool) []*schema.Node
	// relation is the table storing node's elements under an alias
	// fresh in b's statement.
	relation(b *builder, node *schema.Node) sqlast.TableRef
	// namePat is the path-segment pattern of the elements step selects
	// from node's relation.
	namePat(node *schema.Node, step *xpath.Step) string
	// nodeTest is the path pattern enforcing step's node test on an
	// element no forward regex constrains (Algorithm 1 lines 6-7), ""
	// where the relation implies it.
	nodeTest(step *xpath.Step) string
	// siblingTest restricts alias, a sibling scan of relation's table,
	// to step's node test; nil where the relation implies it.
	siblingTest(alias string, step *xpath.Step) sqlast.Expr
	// attrTest is the condition that the element at alias has the
	// named attribute and its value satisfies cond (nil: merely has
	// it).
	attrTest(b *builder, alias string, node *schema.Node, name string, cond func(sqlast.Expr) sqlCond) sqlCond
}

// schemaMapping is package shred's schema-aware mapping: one relation
// per schema node, attributes and text inline.
type schemaMapping struct{ schema *schema.Schema }

func (m schemaMapping) candidates(f *ppf, ctx []*schema.Node, fromRoot bool) []*schema.Node {
	switch f.kind {
	case ppfForward, ppfBackward:
		steps := make([]schema.Step, len(f.steps))
		for i, s := range f.steps {
			steps[i] = schema.Step{Axis: schemaAxis(s.Axis), Name: s.Name}
			if s.Wildcard() || s.Test != xpath.NameTest {
				steps[i].Name = ""
			}
		}
		if fromRoot {
			return m.schema.Resolve(nil, steps)
		}
		return m.schema.Resolve(ctx, steps)
	default: // horizontal
		s := f.steps[0]
		name := s.Name
		if s.Wildcard() || s.Test != xpath.NameTest {
			name = ""
		}
		switch s.Axis {
		case xpath.FollowingSibling, xpath.PrecedingSibling:
			return m.schema.Resolve(ctx, []schema.Step{{Axis: schema.Parent}, {Axis: schema.Child, Name: name}})
		default: // following, preceding
			return m.schema.Resolve(ctx, []schema.Step{{Axis: schema.AnyByName, Name: name}})
		}
	}
}

func schemaAxis(a xpath.Axis) schema.StepAxis {
	switch a {
	case xpath.Child:
		return schema.Child
	case xpath.Descendant:
		return schema.Descendant
	case xpath.DescendantOrSelf:
		return schema.DescendantOrSelf
	case xpath.Parent:
		return schema.Parent
	case xpath.Ancestor:
		return schema.Ancestor
	case xpath.AncestorOrSelf:
		return schema.AncestorOrSelf
	default:
		return schema.AnyByName
	}
}

func (schemaMapping) relation(b *builder, node *schema.Node) sqlast.TableRef {
	rel := shred.RelName(node.Name)
	return sqlast.TableRef{Table: rel, Alias: b.newAlias(rel)}
}

func (schemaMapping) namePat(node *schema.Node, _ *xpath.Step) string { return regexQuote(node.Name) }

func (schemaMapping) nodeTest(*xpath.Step) string { return "" }

func (schemaMapping) siblingTest(string, *xpath.Step) sqlast.Expr { return nil }

func (schemaMapping) attrTest(_ *builder, alias string, node *schema.Node, name string, cond func(sqlast.Expr) sqlCond) sqlCond {
	if !node.HasAttr(name) {
		return condFalse
	}
	return testValue(sqlast.C(alias, shred.AttrCol(name)), cond)
}

// edgeMapping is the schema-oblivious Edge-like mapping of the Section
// 5.1 comparison: one central element relation, attributes in a
// relation of their own. It is modelled as a schema of one node that
// may nest in itself: being I-P it always keeps its path filters and
// pins its fragment boundaries, and being every step's only candidate
// it never splits the SQL and always excludes the context row from a
// proper-descendant or proper-ancestor join.
type edgeMapping struct{ node *schema.Node }

// NewEdge returns a PPF translator over the Edge-like mapping. Of
// opts it honours FKChildParent and PatternTrace: there is no schema
// whose marking could justify omitting a path filter.
func NewEdge(opts *Options) *Translator {
	o := DefaultOptions()
	o.PathFilterOmission = false
	if opts != nil {
		o.FKChildParent = opts.FKChildParent
		o.PatternTrace = opts.PatternTrace
	}
	node := &schema.Node{Name: shred.EdgeTable, HasText: true, Mark: schema.InfinitePaths}
	return &Translator{m: edgeMapping{node}, opts: o}
}

func (m edgeMapping) candidates(*ppf, []*schema.Node, bool) []*schema.Node {
	return []*schema.Node{m.node}
}

func (edgeMapping) relation(b *builder, _ *schema.Node) sqlast.TableRef {
	return sqlast.TableRef{Table: shred.EdgeTable, Alias: b.seqAlias("e")}
}

func (edgeMapping) namePat(_ *schema.Node, step *xpath.Step) string { return namePat(step) }

func (edgeMapping) nodeTest(step *xpath.Step) string {
	if step.Wildcard() || step.Test != xpath.NameTest {
		return ""
	}
	return "^.*/" + regexQuote(step.Name) + "$"
}

func (edgeMapping) siblingTest(alias string, step *xpath.Step) sqlast.Expr {
	return sqlast.Eq(sqlast.C(alias, shred.ColName), sqlast.Str(step.Name))
}

func (edgeMapping) attrTest(b *builder, alias string, _ *schema.Node, name string, cond func(sqlast.Expr) sqlCond) sqlCond {
	a := b.seqAlias("at")
	sub := &sqlast.Select{
		Cols: []sqlast.SelectCol{{Expr: &sqlast.NullLit{}}},
		From: []sqlast.TableRef{{Table: shred.AttrTable, Alias: a}},
	}
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColOwner), sqlast.C(alias, shred.ColID)))
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColAttrName), sqlast.Str(name)))
	if cond != nil {
		c := cond(sqlast.C(a, shred.ColValue))
		if c.isFalse {
			return c
		}
		sub.AddConjunct(c.expr)
	}
	return dyn(&sqlast.Exists{Select: sub})
}
