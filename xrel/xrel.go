// Package xrel is the public API of the PPF XPath-on-relational
// library: it ties together XML parsing, schema graphs, schema-aware
// shredding, the PPF-based XPath-to-SQL translator of Georgiadis &
// Vassalos (EDBT 2006), and the embedded relational engine.
//
// Typical use:
//
//	s, _ := xrel.ParseCompactSchema(schemaText)
//	store, _ := xrel.Open(s)
//	store.LoadXML(strings.NewReader(document))
//	res, _ := store.Query("/site/people/person[address and phone]")
//	for _, row := range res.Nodes { ... }
package xrel

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmltree"
)

// Schema is an XML schema graph (re-exported).
type Schema = schema.Schema

// Document is a parsed XML document (re-exported).
type Document = xmltree.Document

// Options tune the PPF translation (re-exported).
type Options = core.Options

// ParseCompactSchema parses the compact schema DSL (see
// internal/schema: "!root site", "site -> regions people", "person
// @id", "name #text").
func ParseCompactSchema(src string) (*Schema, error) {
	return schema.ParseCompact(src)
}

// ParseXSD parses a subset of W3C XML Schema.
func ParseXSD(r io.Reader) (*Schema, error) { return schema.ParseXSD(r) }

// InferSchema derives a schema graph from sample documents.
func InferSchema(docs ...*Document) (*Schema, error) { return schema.Infer(docs...) }

// ParseXML parses an XML document.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// Typed execution errors (re-exported from the embedded engine).
// Match with errors.Is: a query that exceeds a budget set via
// SetLimits fails with ErrMemoryBudget or ErrRowBudget; an engine
// panic surfaces as ErrInternal instead of crashing the process.
var (
	ErrMemoryBudget = engine.ErrMemoryBudget
	ErrRowBudget    = engine.ErrRowBudget
	ErrInternal     = engine.ErrInternal
	ErrTimeout      = engine.ErrTimeout
)

// Store is a schema-aware XML store with PPF-based XPath querying.
type Store struct {
	schema      *schema.Schema
	shred       *shred.SchemaAwareStore
	tr          *core.Translator
	maxMemBytes int64
	maxRows     int64
	batchSize   int
}

// SetLimits sets per-statement resource budgets applied to every
// subsequent Query/QueryContext/RunSQL: maxMemoryBytes bounds the
// bytes the engine may materialize (join build sides, sort buffers,
// DISTINCT sets, result rows) and maxRows bounds the produced row
// count. Zero (the default) means unlimited. Exceeding a budget fails
// that statement with ErrMemoryBudget or ErrRowBudget and leaves the
// store fully usable.
func (s *Store) SetLimits(maxMemoryBytes, maxRows int64) {
	s.maxMemBytes = maxMemoryBytes
	s.maxRows = maxRows
}

// SetBatchSize sets the engine's row-id batch capacity for every
// subsequent Query/QueryContext/RunSQL (0 or negative = the engine
// default, currently 1024). Batch size is a pure performance knob:
// results, operator statistics, and budget errors are identical at
// every setting.
func (s *Store) SetBatchSize(n int) { s.batchSize = n }

// execOpts assembles the store-level execution options.
func (s *Store) execOpts() engine.ExecOptions {
	return engine.ExecOptions{
		MaxMemoryBytes: s.maxMemBytes,
		MaxRows:        s.maxRows,
		BatchSize:      s.batchSize,
	}
}

// PeakStatementMemory reports the largest accounted memory footprint
// any single statement has reached on this store's engine, in bytes.
func (s *Store) PeakStatementMemory() int64 {
	return s.shred.DB.PeakStatementMemory()
}

// Open creates an empty store for documents conforming to the schema,
// using the paper's default translation options.
func Open(s *Schema) (*Store, error) { return OpenWithOptions(s, nil) }

// OpenWithOptions creates a store with custom translation options.
func OpenWithOptions(s *Schema, opts *Options) (*Store, error) {
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		return nil, err
	}
	return &Store{schema: s, shred: st, tr: core.New(s, opts)}, nil
}

// OpenPersistent opens (or creates) a durable store rooted at dir.
// Every Load commits its document to a write-ahead log before it
// becomes visible; reopening the same directory recovers the exact
// pre-crash store state (see internal/engine.Open). The schema must
// match the one the directory was created with.
func OpenPersistent(dir string, s *Schema) (*Store, error) {
	return OpenPersistentWithOptions(dir, s, nil)
}

// OpenPersistentWithOptions is OpenPersistent with custom translation
// options.
func OpenPersistentWithOptions(dir string, s *Schema, opts *Options) (*Store, error) {
	db, err := engine.Open(dir)
	if err != nil {
		return nil, err
	}
	st, err := shred.NewSchemaAwareDB(db, s)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return &Store{schema: s, shred: st, tr: core.New(s, opts)}, nil
}

// Checkpoint compacts the store's write-ahead log into a checkpoint
// file so the next OpenPersistent replays less. It is a no-op on
// in-memory stores.
func (s *Store) Checkpoint() error {
	if !s.shred.DB.Persistent() {
		return nil
	}
	return s.shred.DB.Checkpoint()
}

// Close flushes and closes the store's write-ahead log. In-memory
// stores close trivially. The store must not be used after Close.
func (s *Store) Close() error { return s.shred.DB.Close() }

// Load shreds a parsed document into the store, returning its
// document id.
func (s *Store) Load(doc *Document) (int64, error) { return s.shred.Load(doc) }

// LoadXML parses and shreds a document.
func (s *Store) LoadXML(r io.Reader) (int64, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return 0, err
	}
	return s.Load(doc)
}

// SQL is the result of translating an XPath expression.
type SQL struct {
	// Text is the SQL statement in the engine dialect.
	Text string
	// Selects is the number of UNION branches (the paper's
	// SQL-splitting metric).
	Selects int
	// Joins is the number of relations referenced.
	Joins int

	stmt interface{} // sqlast.Statement, kept unexported
}

// Translate compiles an XPath query to SQL without executing it.
func (s *Store) Translate(query string) (*SQL, error) {
	sh, args, err := s.tr.Prepare(query)
	if err != nil {
		return nil, err
	}
	tr := sh.Bind(args)
	return &SQL{Text: tr.SQL, Selects: tr.Selects, Joins: tr.Joins, stmt: tr.Stmt}, nil
}

// Node is one element of a query result.
type Node struct {
	// ID is the document-global node id (document order).
	ID int64
	// Dewey is the node's Dewey position in dotted notation.
	Dewey string
}

// Result holds a query's selected nodes in document order.
type Result struct {
	Nodes []Node
	// SQL is the executed statement.
	SQL string
}

// Query translates and executes an XPath query. What it pays per call
// depends on the query's shape — its text with the compared literals
// cut out ([@id='person7'] and [@id='person8'] are one shape): the
// first query of a shape is translated and planned, every later one is
// parsed, looked up, and executed on the shape's plan with its own
// values bound, until a Load changes a table the plan reads. It passes
// a nil context — not context.Background() — so the engine's
// nil-context fast path skips the per-1024-row cancellation poll
// entirely (ctxflow enforces this).
func (s *Store) Query(query string) (*Result, error) {
	return s.QueryContext(nil, query)
}

// QueryContext is Query under a context: cancellation or deadline
// expiry stops the engine mid-statement with ctx.Err().
func (s *Store) QueryContext(ctx context.Context, query string) (*Result, error) {
	sh, args, err := s.tr.Prepare(query)
	if err != nil {
		return nil, err
	}
	sql := sh.SQL(args)
	res, err := sh.Prepared(s.shred.DB).RunArgs(ctx, args, s.execOpts())
	if err != nil {
		return nil, fmt.Errorf("xrel: executing %q: %w", sql, err)
	}
	out := &Result{SQL: sql}
	if len(res.Rows) > 0 {
		out.Nodes = make([]Node, len(res.Rows))
	}
	for i, row := range res.Rows {
		out.Nodes[i].ID = row[0].I
		if row[1].Kind == engine.KBytes {
			out.Nodes[i].Dewey = deweyString(row[1].B)
		}
	}
	return out, nil
}

// RunSQL executes a statement of the engine dialect directly,
// returning column names and stringified rows. It exposes the
// embedded engine for inspection and tooling. Like Query it passes a
// nil context, not context.Background().
func (s *Store) RunSQL(sql string) (cols []string, rows [][]string, err error) {
	res, err := s.shred.DB.ExecSQL(nil, sql, s.execOpts())
	if err != nil {
		return nil, nil, err
	}
	rows = make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = make([]string, len(r))
		for j, v := range r {
			rows[i][j] = v.String()
		}
	}
	return res.Cols, rows, nil
}

// Explain renders the engine's physical operator tree for an XPath
// query without executing it: the plan Query would run, which is the
// plan of the query's shape. A literal the shape leaves open shows as
// ?1, and a last line gives the values this text binds.
func (s *Store) Explain(query string) (string, error) { return s.explain(query, false) }

// ExplainAnalyze executes an XPath query under the store's limits and
// renders the physical operator tree annotated with
// per-operator runtime statistics (rows in/out, loops, index probes,
// pattern-cache hits, memory charged, wall time).
func (s *Store) ExplainAnalyze(query string) (string, error) { return s.explain(query, true) }

// explain sends EXPLAIN [ANALYZE] of the query's shape through the
// statement boundary Query uses, with the query's values.
func (s *Store) explain(query string, analyze bool) (string, error) {
	sh, args, err := s.tr.Prepare(query)
	if err != nil {
		return "", err
	}
	ex := s.shred.DB.PrepareStmt(&sqlast.Explain{Analyze: analyze, Stmt: sh.Stmt})
	res, err := ex.RunArgs(nil, args, s.execOpts())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].S)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// TableSizes reports "relation=rows" pairs, sorted by name.
func (s *Store) TableSizes() []string { return s.shred.DB.SortedTableSizes() }

// PathCount reports the number of distinct root-to-node paths stored
// (the size of the paper's 'paths' relation).
func (s *Store) PathCount() int { return s.shred.PathCount() }

// PlanCacheStats reports the embedded engine's prepared-plan cache
// counters: cached plans, cumulative hits, cumulative misses. Plans
// are kept per query shape: a hit is a query of a shape already
// planned against the tables as they now stand, whatever values it
// compares with; a miss is the first query of a shape, or the first
// after a Load changed a table its plan reads.
func (s *Store) PlanCacheStats() (size int, hits, misses uint64) {
	hits, misses = s.shred.DB.PlanCacheStats()
	return s.shred.DB.PlanCacheSize(), hits, misses
}

// ValidQuery reports whether the query parses and is translatable for
// this store's schema.
func (s *Store) ValidQuery(query string) error {
	_, _, err := s.tr.Prepare(query)
	return err
}

func deweyString(b []byte) string { return dewey.Pos(b).String() }
