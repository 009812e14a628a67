-- View dependencies: a materialized view over a materialized view.
-- Each commit maintains w after v, inputs before readers.  DROP is
-- RESTRICT: v cannot be dropped while w reads it, so the script ends
-- in a refused statement (exit code 1) and leaves every view intact.

CREATE TABLE seq (pos INT, val FLOAT);
INSERT INTO seq VALUES (1, 10.0), (2, 20.0), (3, 30.0);

CREATE MATERIALIZED VIEW v AS
  SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s
  FROM seq;

CREATE MATERIALIZED VIEW w AS SELECT pos, s FROM v;

INSERT INTO seq VALUES (4, 10.0);
SELECT * FROM w ORDER BY pos;

DROP VIEW v;
