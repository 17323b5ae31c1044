package kor

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"kor/internal/geo"
)

func TestRouteGeoJSON(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("start")
	c := b.AddNode("cafe")
	if err := b.AddEdge(a, c, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPosition(a, geo.Point{X: -73.99, Y: 40.75}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPosition(c, geo.Point{X: -73.98, Y: 40.76}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetName(c, "Cafe"); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()

	eng, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Run(context.Background(), Request{From: a, To: c, Keywords: []string{"cafe"}, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	route := resp.Best()
	raw, err := RouteGeoJSON(g, route)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type string `json:"type"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Type != "FeatureCollection" {
		t.Errorf("type = %q", doc.Type)
	}
	if len(doc.Features) != 1+len(route.Nodes) {
		t.Fatalf("features = %d, want %d", len(doc.Features), 1+len(route.Nodes))
	}
	if doc.Features[0].Geometry.Type != "LineString" {
		t.Errorf("first feature geometry = %q", doc.Features[0].Geometry.Type)
	}
	if doc.Features[1].Geometry.Type != "Point" {
		t.Errorf("node feature geometry = %q", doc.Features[1].Geometry.Type)
	}
	if !strings.Contains(string(raw), `"name":"Cafe"`) {
		t.Error("node name missing from properties")
	}
}

func TestRouteGeoJSONRequiresPositions(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("x")
	c := b.AddNode("y")
	if err := b.AddEdge(a, c, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	if _, err := RouteGeoJSON(g, Route{Nodes: []NodeID{a, c}}); err == nil {
		t.Fatal("GeoJSON without coordinates accepted")
	}
}
