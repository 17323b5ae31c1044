package kor

import (
	"context"
	"errors"
	"testing"
)

// TestRunMatchesCoreSearch checks Engine.Run gives the same answers as the
// core searcher it dispatches to, for every registered algorithm, and
// annotates each response with the algorithm and a positive wall time.
func TestRunMatchesCoreSearch(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	sn := eng.snap.Load()
	req := Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5}
	for _, algo := range Algorithms() {
		req.Algorithm = algo
		resp, runErr := eng.Run(context.Background(), req)
		p, err := sn.prepare(req)
		if err != nil {
			t.Fatalf("%s: prepare: %v", algo, err)
		}
		want, directErr := sn.searcher.Run(context.Background(), p.algo, p.q, p.opts)
		if (runErr == nil) != (directErr == nil) {
			t.Fatalf("%s: Run err %v, direct err %v", algo, runErr, directErr)
		}
		if runErr != nil {
			continue
		}
		if resp.Best().Objective != want.Best().Objective {
			t.Errorf("%s: Run %v != direct %v", algo, resp.Best(), want.Best())
		}
		if resp.Algorithm != algo {
			t.Errorf("%s: response reports algorithm %q", algo, resp.Algorithm)
		}
		if resp.Elapsed <= 0 {
			t.Errorf("%s: non-positive Elapsed %v", algo, resp.Elapsed)
		}
	}
}

func TestRunDefaultAlgorithmAndBound(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Run(context.Background(), Request{
		From: 0, To: 0, Keywords: []string{"jazz", "park"}, Budget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != AlgorithmBucketBound {
		t.Errorf("default algorithm = %q, want bucketbound", resp.Algorithm)
	}
	// DefaultOptions: β/(1−ε) = 1.2/0.5 = 2.4.
	if resp.Bound < 2.39 || resp.Bound > 2.41 {
		t.Errorf("bound = %v, want 2.4", resp.Bound)
	}
	if !resp.Best().Feasible {
		t.Errorf("infeasible route %v", resp.Best())
	}
}

func TestRunTopK(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Epsilon = 0.1
	resp, err := eng.Run(context.Background(), Request{
		From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6,
		Algorithm: AlgorithmTopK, K: 3, Options: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Routes) < 2 {
		t.Fatalf("top-k Run returned %d routes", len(resp.Routes))
	}
	for i := 1; i < len(resp.Routes); i++ {
		if resp.Routes[i-1].Objective > resp.Routes[i].Objective+1e-9 {
			t.Fatal("top-k routes not sorted")
		}
	}
}

// TestRunValidatesOptions: bad tuning fails fast with an ErrBadQuery wrap
// instead of silently degrading to defaults.
func TestRunValidatesOptions(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Epsilon = 1.5
	_, err = eng.Run(context.Background(), Request{
		From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, Options: &bad,
	})
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad epsilon: err = %v, want ErrBadQuery wrap", err)
	}

	zeroK := DefaultOptions()
	zeroK.K = 0
	_, err = eng.Run(context.Background(), Request{
		From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, Options: &zeroK,
	})
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("zero K: err = %v, want ErrBadQuery wrap", err)
	}

	// A negative Request.K must flow into validation, not be ignored.
	_, err = eng.Run(context.Background(), Request{
		From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, K: -3,
	})
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("negative K: err = %v, want ErrBadQuery wrap", err)
	}
}

func TestRunErrors(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Run(ctx, Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, Algorithm: "warp"}); !errors.Is(err, ErrBadQuery) || !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err = %v, want ErrBadQuery and ErrUnknownAlgorithm", err)
	}
	if _, err := eng.Run(ctx, Request{From: 0, To: 2, Keywords: []string{"spa"}, Budget: 5}); !errors.Is(err, ErrUnknownKeyword) {
		t.Errorf("unknown keyword: err = %v, want ErrUnknownKeyword", err)
	}
	if _, err := eng.Run(ctx, Request{From: 0, To: 2, Keywords: []string{"jazz"}, Budget: 0.1}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("tiny budget: err = %v, want ErrNoRoute", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Run(cancelled, Request{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSearchBatchHeterogeneous runs one batch mixing algorithms, per-request
// options and a failing request, checking each slot behaves like its
// standalone Run.
func TestSearchBatchHeterogeneous(t *testing.T) {
	eng, err := NewEngine(tinyCity(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	tight := DefaultOptions()
	tight.Epsilon = 0.1
	requests := []Request{
		{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5},
		{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 6, Algorithm: AlgorithmTopK, K: 3, Options: &tight},
		{From: 0, To: 2, Keywords: []string{"cafe"}, Budget: 5, Algorithm: AlgorithmExact},
		{From: 0, To: 2, Keywords: []string{"spa"}, Budget: 5},
	}
	results, err := eng.SearchBatch(context.Background(), requests, 2)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	for i, req := range requests {
		want, wantErr := eng.Run(context.Background(), req)
		got := results[i]
		if (wantErr == nil) != (got.Err == nil) {
			t.Fatalf("request %d: batch err %v, direct err %v", i, got.Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Response.Algorithm != want.Algorithm {
			t.Errorf("request %d: algorithm %q != %q", i, got.Response.Algorithm, want.Algorithm)
		}
		if len(got.Response.Routes) != len(want.Routes) {
			t.Fatalf("request %d: %d routes != %d", i, len(got.Response.Routes), len(want.Routes))
		}
		for j := range want.Routes {
			if got.Response.Routes[j].Objective != want.Routes[j].Objective {
				t.Errorf("request %d route %d: objective %v != %v", i, j,
					got.Response.Routes[j].Objective, want.Routes[j].Objective)
			}
		}
	}
	if !errors.Is(results[3].Err, ErrUnknownKeyword) {
		t.Errorf("failing slot err = %v, want ErrUnknownKeyword", results[3].Err)
	}
}
