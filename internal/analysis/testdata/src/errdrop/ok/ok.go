// Negative cases for the errdrop analyzer: handled errors, the
// explicit `_ =` discard idiom, the conventional exemptions (fmt
// printing, infallible builders), and the durability errors syncerr
// reports instead.
package ok

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

func fail() error { return errors.New("boom") }

func load() (int, error) { return 0, errors.New("boom") }

func handled() error {
	if err := fail(); err != nil {
		return err
	}
	v, err := load()
	if err != nil {
		return err
	}
	_ = v
	return nil
}

func explicitDiscard() {
	_ = fail()
	_, _ = load()
}

func exemptions() string {
	fmt.Println("diagnostics are fine")
	var b strings.Builder
	b.WriteString("infallible")
	return b.String()
}

// A method promoted from an embedded Builder is the Builder's.
type annotated struct {
	strings.Builder
	marks []int
}

func promoted() string {
	var b annotated
	b.WriteString("infallible")
	b.marks = append(b.marks, b.Len())
	b.WriteByte('!')
	return b.String()
}

type file struct{}

func (file) Close() error { return nil }

func (file) Sync() error { return errors.New("boom") }

// Deferred Close is the universal cleanup idiom (syncerr owns the
// cases where its error matters); deferred literals that route the
// error somewhere are the fix for other deferred calls.
func deferredIdioms(f file) error {
	defer f.Close()
	var retErr error
	defer func() {
		if err := f.Sync(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	return retErr
}

// errors.Join handled or returned is fine; only blanking it is not.
func joinedHandled(errs []error) error {
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// Worker-pool idiom: the goroutine body returns nothing; the error is
// captured into a slot inside the wrapper.
func workerPool() error {
	errs := make([]error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		errs[0] = fail()
	}()
	<-done
	return errs[0]
}

// Dropped durability errors are syncerr's findings, reported once
// there: errdrop stays silent on (*os.File).Sync and on Close of a file
// opened writable.
func durabilityDrops(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Sync()
	f.Sync()
	f.Close()
}
