// Command admsql is an interactive SQL shell over the componentised
// query machine: every statement flows frontend → parser → executor →
// (bound) optimiser through concrete component boundaries, and the
// optimiser can be swapped mid-session.
//
// Usage:
//
//	admsql                       # interactive shell on stdin
//	echo 'SELECT 1;' | admsql    # batch mode
//	admsql -connect host:port    # wire-protocol shell against admsqld
//
// In -connect mode retryable server failures (write conflicts, load
// shedding) are reported distinctly from hard errors so scripted
// clients know to retry.
//
// Meta commands:
//
//	\optimiser [cost|conservative]   show or swap the bound optimiser
//	\components                      list live components and bindings
//	\trace                           adaptation-trace summary
//	\q                               quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/adm-project/adm/internal/dbmachine"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/storage"
	"github.com/adm-project/adm/internal/trace"
)

func main() {
	connect := flag.String("connect", "", "admsqld address; empty runs the embedded machine")
	token := flag.String("token", "", "auth token for -connect")
	flag.Parse()
	if *connect != "" {
		if err := remoteShell(*connect, *token); err != nil {
			fmt.Fprintf(os.Stderr, "admsql: %v\n", err)
			os.Exit(1)
		}
		return
	}
	log := trace.New()
	m, err := dbmachine.New(log)
	if err != nil {
		fmt.Fprintf(os.Stderr, "admsql: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("admsql — componentised SQL shell (\\q to quit, \\optimiser to swap)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("adm> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "\\q" || line == "\\quit":
			return
		case line == "\\components":
			for _, n := range m.Asm.Components() {
				fmt.Printf("  component %s\n", n)
			}
			for _, b := range m.Asm.Bindings() {
				fmt.Printf("  bind %s\n", b)
			}
			continue
		case line == "\\trace":
			fmt.Println(" ", log.Summary())
			continue
		case strings.HasPrefix(line, "\\optimiser"):
			parts := strings.Fields(line)
			if len(parts) == 1 {
				fmt.Printf("  bound: %s\n", m.Optimiser())
				continue
			}
			if err := m.SwapOptimiser(parts[1]); err != nil {
				fmt.Printf("  error: %v\n", err)
				continue
			}
			fmt.Printf("  optimiser -> %s\n", m.Optimiser())
			continue
		case strings.HasPrefix(line, "\\"):
			fmt.Println("  unknown meta command")
			continue
		}
		line = strings.TrimSuffix(line, ";")
		res, rep, err := m.Exec(line)
		if err != nil {
			if errors.Is(err, storage.ErrWriteConflict) {
				fmt.Printf("  retryable: %v (re-issue the transaction)\n", err)
			} else {
				fmt.Printf("  error: %v\n", err)
			}
			continue
		}
		printResult(res)
		if rep != nil && rep.Replanned {
			fmt.Printf("  (replanned mid-query: build %s -> %s at row %d)\n",
				rep.InitialBuild, rep.FinalBuild, rep.TriggerRow)
		}
	}
}

// remoteShell is the -connect REPL: statements go over the wire and
// retryable failures (conflict, shed) are labelled as such.
func remoteShell(addr, token string) error {
	c, err := server.Dial(addr, token)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := c.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "admsql: close: %v\n", cerr)
		}
	}()
	fmt.Printf("admsql — connected to %s (\\q to quit)\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("adm> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "\\q" || line == "\\quit" {
			return nil
		}
		res, err := c.Query(strings.TrimSuffix(line, ";"))
		if err != nil {
			var re *server.RemoteError
			if errors.As(err, &re) {
				if re.Retryable() {
					fmt.Printf("  retryable (code %d): %s\n", re.Code, re.Msg)
				} else {
					fmt.Printf("  error (code %d): %s\n", re.Code, re.Msg)
				}
				continue
			}
			return err // the connection is poisoned
		}
		printResult(&query.Result{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected})
	}
}

func printResult(res *query.Result) {
	if len(res.Cols) == 0 {
		fmt.Printf("  ok (%d affected)\n", res.Affected)
		return
	}
	widths := make([]int, len(res.Cols))
	for i, c := range res.Cols {
		widths[i] = len(c)
	}
	render := func(row storage.Tuple) []string {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
			if len(out[i]) > widths[i] {
				widths[i] = len(out[i])
			}
		}
		return out
	}
	var rendered [][]string
	for _, r := range res.Rows {
		rendered = append(rendered, render(r))
	}
	line := "  "
	for i, c := range res.Cols {
		line += fmt.Sprintf("%-*s  ", widths[i], c)
	}
	fmt.Println(line)
	for _, r := range rendered {
		line = "  "
		for i, v := range r {
			line += fmt.Sprintf("%-*s  ", widths[i], v)
		}
		fmt.Println(line)
	}
	fmt.Printf("  (%d rows)\n", len(res.Rows))
}
