// Package sqldriver exposes the embedded engine through the standard
// database/sql interface. The paper's system talked to PostgreSQL over JDBC;
// the KWS-S layers here talk to the engine over database/sql, which keeps the
// query path shaped the same way (SQL text in, rows out) and lets any code
// written against *sql.DB run unchanged on the embedded engine.
//
// Usage:
//
//	e, _ := engine.Load(script)
//	db := sqldriver.OpenDB(e)
//	defer db.Close()
//	rows, err := db.Query("SELECT 1 FROM Item WHERE name CONTAINS 'candle' LIMIT 1")
//
// Placeholders are not supported: a KWS-S system generates fully-instantiated
// SQL strings (the lattice templates are instantiated in Phase 1), so the
// driver keeps to that contract.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/engine"
)

// OpenDB returns a *sql.DB whose connections run on the engine. The DB
// reaches the engine only through its connector — nothing process-wide
// refers to either — so once the DB is closed and dropped, the engine is
// free to be collected.
func OpenDB(e *engine.Engine) *sql.DB {
	return sql.OpenDB(connector{eng: e})
}

// connector implements driver.Connector over one engine. database/sql also
// asks a connector for its driver.Driver; the connector serves as its own,
// ignoring the name Open receives since it is already bound to an engine.
type connector struct {
	eng *engine.Engine
}

// Connect returns a connection to the connector's engine.
func (c connector) Connect(context.Context) (driver.Conn, error) {
	return &conn{eng: c.eng}, nil
}

// Driver implements driver.Connector.
func (c connector) Driver() driver.Driver { return c }

// Open implements driver.Driver.
func (c connector) Open(string) (driver.Conn, error) {
	return &conn{eng: c.eng}, nil
}

// conn is a stateless connection to one engine.
type conn struct {
	eng *engine.Engine
}

var (
	_ driver.Conn           = (*conn)(nil)
	_ driver.QueryerContext = (*conn)(nil)
	_ driver.ExecerContext  = (*conn)(nil)
)

// Prepare returns a statement that re-executes the SQL text on each call.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{conn: c, query: query}, nil
}

// Close releases the connection (a no-op: the engine is shared).
func (c *conn) Close() error { return nil }

// Begin is required by driver.Conn; the engine is read-mostly and does not
// support transactions.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sqldriver: transactions are not supported")
}

// QueryContext executes a SELECT directly, bypassing Prepare.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("sqldriver: placeholders are not supported")
	}
	res, err := c.eng.QueryContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// ExecContext executes an INSERT directly, bypassing Prepare.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("sqldriver: placeholders are not supported")
	}
	n, err := c.eng.Exec(query)
	if err != nil {
		return nil, err
	}
	return execResult{rows: n}, nil
}

// stmt is a prepared statement: just retained SQL text.
type stmt struct {
	conn  *conn
	query string
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return 0 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("sqldriver: placeholders are not supported")
	}
	return s.conn.ExecContext(context.Background(), s.query, nil)
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("sqldriver: placeholders are not supported")
	}
	return s.conn.QueryContext(context.Background(), s.query, nil)
}

// execResult reports affected rows; the engine has no auto-increment IDs.
type execResult struct{ rows int64 }

func (r execResult) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("sqldriver: LastInsertId is not supported")
}

func (r execResult) RowsAffected() (int64, error) { return r.rows, nil }

// rows adapts an engine result set to driver.Rows.
type rows struct {
	res *engine.Result
	pos int
}

func (r *rows) Columns() []string { return r.res.Columns }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.pos]
	r.pos++
	for i, v := range row {
		switch v.Kind {
		case catalog.Int:
			dest[i] = v.I
		case catalog.Float:
			dest[i] = v.F
		case catalog.Text:
			dest[i] = v.S
		default:
			return fmt.Errorf("sqldriver: unsupported value kind %d", int(v.Kind))
		}
	}
	return nil
}
