package service

import (
	"context"
	"net/http"

	"reveal/internal/jobs"
)

// Cancel is the client side of DELETE /api/v1/campaigns/{id}, which the
// tests drive; revealctl has no cancel command.

// Cancel aborts a campaign.
func (c *Client) Cancel(ctx context.Context, id string) (jobs.Status, error) {
	var st jobs.Status
	err := c.do(ctx, http.MethodDelete, "/api/v1/campaigns/"+id, nil, &st)
	return st, err
}
