// Command xsql is an interactive shell for the embedded relational
// engine. It reads one statement per line (CREATE TABLE, CREATE
// INDEX, INSERT, SELECT) and prints results — useful for poking at a
// shredded store or experimenting with the dialect. With -load and an
// optional -schema, the shell starts with an XML document already
// shredded under the schema-aware mapping.
//
//	xsql [-db DIR] [-schema site.schema [-xsd]] [-load doc.xml]
//	     [-max-mem BYTES] [-max-rows N] [-e 'STMT'...]
//
// -db DIR opens (or creates) a persistent store rooted at DIR: every
// INSERT, CREATE TABLE, CREATE INDEX, and -load commits to a
// write-ahead log before it is acknowledged, and restarting xsql on
// the same directory recovers the exact prior state. Without -db the
// store is in-memory and vanishes on exit.
//
// -max-mem and -max-rows set per-statement resource budgets (0 =
// unlimited): a statement that exceeds one fails with a budget error
// and the shell keeps running. How many goroutines run a SELECT, and
// how many row ids cross an operator boundary at once, are the
// engine's decisions; the first is bounded by GOMAXPROCS.
//
// Special commands: \d lists tables; \stats prints engine cache
// metrics; \explain STMT prints the physical operator tree of a
// statement with per-operator runtime statistics (shorthand for
// EXPLAIN ANALYZE STMT, which also works); \q quits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmltree"
)

func main() {
	dbDir := flag.String("db", "", "directory of a persistent store to open or create (empty = in-memory)")
	schemaPath := flag.String("schema", "", "schema file for -load (compact DSL, or XSD with -xsd); inferred when omitted")
	useXSD := flag.Bool("xsd", false, "parse the schema file as XML Schema")
	load := flag.String("load", "", "XML document to shred before starting")
	maxMem := flag.Int64("max-mem", 0, "per-statement memory budget in bytes (0 = unlimited)")
	maxRows := flag.Int64("max-rows", 0, "per-statement produced-row budget (0 = unlimited)")
	var stmts multiFlag
	flag.Var(&stmts, "e", "statement to execute (repeatable); skips the interactive loop")
	flag.Parse()

	opts := engine.ExecOptions{MaxMemoryBytes: *maxMem, MaxRows: *maxRows}
	if err := run(*dbDir, *schemaPath, *useXSD, *load, opts, stmts, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xsql:", err)
		os.Exit(1)
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func run(dbDir, schemaPath string, useXSD bool, load string, opts engine.ExecOptions, stmts []string, in *os.File, out *os.File) (err error) {
	db := engine.NewDB()
	if dbDir != "" {
		if db, err = engine.Open(dbDir); err != nil {
			return err
		}
		defer func() {
			if cerr := db.Close(); err == nil {
				err = cerr
			}
		}()
		if n := len(db.SortedTableSizes()); n > 0 {
			fmt.Fprintf(out, "opened %s: %s\n", dbDir, strings.Join(db.SortedTableSizes(), " "))
		}
	}
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		var s *schema.Schema
		if schemaPath != "" {
			data, err := os.ReadFile(schemaPath)
			if err != nil {
				return err
			}
			if useXSD {
				s, err = schema.ParseXSD(strings.NewReader(string(data)))
			} else {
				s, err = schema.ParseCompact(string(data))
			}
			if err != nil {
				return err
			}
		} else if s, err = schema.Infer(doc); err != nil {
			return err
		}
		st, err := shred.NewSchemaAwareDB(db, s)
		if err != nil {
			return err
		}
		if _, err := st.Load(doc); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %s: %s\n", load, strings.Join(db.SortedTableSizes(), " "))
	}

	exec := func(line string) {
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
		if line == "" {
			return
		}
		switch line {
		case `\d`:
			for _, t := range db.SortedTableSizes() {
				fmt.Fprintln(out, t)
			}
			return
		case `\stats`:
			hits, misses := db.PlanCacheStats()
			fmt.Fprintf(out, "plan cache: %d entries, %d hits, %d misses\n",
				db.PlanCacheSize(), hits, misses)
			fmt.Fprintf(out, "pattern cache: %d entries\n", engine.PatternCacheSize())
			fmt.Fprintf(out, "peak statement memory: %d bytes\n", db.PeakStatementMemory())
			return
		}
		if rest, ok := strings.CutPrefix(line, `\explain `); ok {
			//xvet:ignore sqltaint -- REPL input: the user's typed SQL is the one legitimate raw source
			st, err := sqlast.Parse(strings.TrimSpace(rest))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				return
			}
			text, err := db.ExplainAnalyzeWithOptions(st, opts)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				return
			}
			fmt.Fprint(out, text)
			return
		}
		res, err := db.ExecSQL(nil, line, opts)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprintln(out, strings.Join(res.Cols, " | "))
		for i, r := range res.Rows {
			if i >= 50 {
				fmt.Fprintf(out, "... %d more row(s)\n", len(res.Rows)-50)
				break
			}
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			fmt.Fprintln(out, strings.Join(cells, " | "))
		}
		fmt.Fprintf(out, "(%d row(s))\n", len(res.Rows))
	}

	if len(stmts) > 0 {
		for _, s := range stmts {
			exec(s)
		}
		return nil
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(out, "xsql> ")
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == `\q` {
			break
		}
		exec(line)
		fmt.Fprint(out, "xsql> ")
	}
	return sc.Err()
}
