// Sequential unlearning requests — the streaming setting behind the
// paper's Figure 4 and §5 discussion. Regulators, users and operators
// keep filing requests over the system's lifetime; QuickDrop amortizes
// its one-time distillation cost over the stream, so each request costs
// milliseconds instead of a retraining run.
//
//	go run ./examples/sequential
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
)

func main() {
	spec := data.CIFARLike(8, 20)
	train, test := data.Generate(spec, 1)
	clients := data.PartitionDirichlet(train, 10, 0.1, rand.New(rand.NewSource(2)))

	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 3, Classes: 10, Width: 8, Depth: 2}
	cfg := core.DefaultConfig(arch)
	cfg.Train.Rounds = 18
	sys, err := core.NewSystem(cfg, data.NewCohort(clients))
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := sys.Train()
	if err != nil {
		log.Fatal(err)
	}
	trainTime := time.Since(start)
	fmt.Printf("one-time training + distillation: %s (distillation %.0f%% of the clients' training time)\n",
		trainTime.Round(time.Millisecond), 100*float64(sys.Matcher.DDTime)/float64(res.ClientTime))

	// A mixed stream of requests, as they might arrive in production:
	// classes retracted by the operator and clients exercising their
	// right to be forgotten.
	stream := []core.Request{
		{Kind: core.ClassLevel, Class: 5},
		{Kind: core.ClientLevel, Client: 2},
		{Kind: core.ClassLevel, Class: 8},
		{Kind: core.ClassLevel, Class: 0},
		{Kind: core.ClientLevel, Client: 7},
	}
	var total time.Duration
	for i, req := range stream {
		rep, err := sys.Unlearn(req)
		if err != nil {
			log.Fatal(err)
		}
		total += rep.Total.WallTime
		acc := eval.Accuracy(sys.Model, remainingTest(test, sys))
		fmt.Printf("request %d (%v): served in %s, accuracy on remaining classes %.1f%%%s\n",
			i+1, req, rep.Total.WallTime.Round(time.Millisecond), 100*acc, forgottenAcc(test, sys))
	}
	fmt.Printf("served %d requests in %s total — %.1fx the one-time training cost\n",
		len(stream), total.Round(time.Millisecond), float64(total)/float64(trainTime))
}

// remainingTest filters the test set down to classes not yet unlearned.
func remainingTest(test *data.Dataset, sys *core.System) *data.Dataset {
	out := test
	for _, c := range sys.RemovedClasses() {
		out = out.WithoutClass(c)
	}
	return out
}

// forgottenAcc lists the test accuracy of every class forgotten so far,
// each of which should stay near zero for the rest of the stream.
func forgottenAcc(test *data.Dataset, sys *core.System) string {
	classes := sys.RemovedClasses()
	if len(classes) == 0 {
		return ""
	}
	acc, _ := eval.PerClassAccuracy(sys.Model, test)
	out := ", on forgotten classes"
	for _, c := range classes {
		out += fmt.Sprintf(" %d: %.1f%%", c, 100*acc[c])
	}
	return out
}
