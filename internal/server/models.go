package server

import (
	"net/http"

	"repro/internal/models"
)

// maxModelBytes bounds an uploaded artifact body. A 30-feature ridge
// model is a few KiB; 1 MiB leaves generous headroom.
const maxModelBytes = 1 << 20

// handleModelUpload is POST /v1/models?name=<ref>: it parses and
// validates a trained artifact (content hash included) and adds it to
// the registry, persisting it when the registry is directory-backed.
// Re-uploading under an existing name replaces that name's model —
// that is how a retrained model rolls out, and because jobs pin the
// artifact's content hash into their cache key, results computed under
// the old version are never served for the new one.
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.URL.Query().Get("name")
	if err := models.ValidateName(name); err != nil {
		httpError(w, http.StatusBadRequest, "invalid model upload: %v", err)
		return
	}
	art, err := models.Load(http.MaxBytesReader(w, r.Body, maxModelBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid model upload: %v", err)
		return
	}
	if err := s.models.Add(name, art); err != nil {
		httpError(w, http.StatusInternalServerError, "storing model: %v", err)
		return
	}
	s.metrics.inc(&s.metrics.totals.ModelUploads)
	writeJSON(w, http.StatusCreated, models.Entry{
		Name:          name,
		Hash:          art.Hash,
		Window:        art.Window,
		Lambda:        art.Lambda,
		ValScore:      art.ValScore,
		FeatureCount:  art.FeatureCount,
		FeatureSchema: art.FeatureSchema,
	})
}

// handleModelList is GET /v1/models: the registry's catalogue, sorted
// by name.
func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.models.List()})
}
