package korapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodingFailure: a value json cannot encode is answered with
// the 500 internal envelope, not an empty 200.
func TestWriteJSONEncodingFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, Response{Bound: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not an error envelope: %v", rec.Body.Bytes(), err)
	}
	if env.Error.Code != CodeInternal || env.Error.Message == "" {
		t.Fatalf("envelope = %+v, want code %q with a message", env, CodeInternal)
	}
}

// TestWriteJSONBody: an encodable value is written as json.Encoder writes
// it, newline included, with a 200 and the JSON content type.
func TestWriteJSONBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, map[string]any{"a": 1, "b": "<x>"})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got, want := rec.Body.String(), "{\"a\":1,\"b\":\"\\u003cx\\u003e\"}\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}
