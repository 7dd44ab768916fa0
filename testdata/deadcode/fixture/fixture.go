// Command fixture plants one case for each rule of the dead-code gate in
// deadcode_test.go, and beside each the cases that rule must let pass.
// It is only type-checked, never run.
package main

import (
	"encoding/json"
	"fmt"
)

const unusedConst = 1 // flagged: no program file uses it

func deadFunc() int { return 2 } // flagged: only use_test.go calls it

// Orphan is named only by its own method's receiver: both are flagged.
type Orphan struct{}

func (Orphan) Touch() {}

// Finder's Find is called through the interface, Lost is not (flagged).
type Finder interface {
	Find(k int) int
	Lost() int
}

type impl struct{ n int }

// Find is called only through Finder.
func (i impl) Find(k int) int { return i.n + k }

// Lost is called directly, so only the interface method is flagged.
func (i impl) Lost() int { return i.n }

// Widget's String is called by fmt only.
type Widget struct{ name string }

func (w Widget) String() string { return w.name }

func (w Widget) unused() int { return len(w.name) } // flagged: only a test calls it

// failure's Error is called through the error interface only.
type failure struct{}

func (failure) Error() string { return "failure" }

// Config is an option struct.
type Config struct {
	Seed    int        // set by a literal key
	Name    string     `json:"name"` // set by encoding/json
	Count   int        // set only by ++
	Weights [2]float64 // set only by an element store
	Unset   int        // flagged: nothing sets it
}

func main() {
	c := Config{Seed: 1}
	if err := json.Unmarshal([]byte(`{"name":"x"}`), &c); err != nil {
		panic(err)
	}
	c.Count++
	c.Weights[0] = 1
	var f Finder = impl{n: c.Seed + c.Count + len(c.Name) + c.Unset}
	var err error = failure{}
	fmt.Println(Widget{name: platform()}, f.Find(int(c.Weights[0])), impl{}.Lost(), err)
}
