//! Recursive-descent parser.

use crate::error::{Error, Result};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Token, TokenKind};
use crate::value::DataType;

/// Keywords that terminate an implicit table alias (`FROM t A INNER JOIN…`).
const RESERVED_AFTER_TABLE: &[&str] = &[
    "inner", "join", "on", "where", "group", "order", "having", "limit", "as", "set", "left",
    "right", "cross", "union",
];

/// Parses a single SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.skip_semicolons();
    p.expect_end()?;
    Ok(stmt)
}

/// Parses a semicolon-separated script into statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    p.skip_semicolons();
    while !p.at_end() {
        out.push(p.statement()?);
        p.skip_semicolons();
    }
    Ok(out)
}

/// Parses a standalone scalar expression (used by tests and by the DL2SQL
/// compiler's assertions).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    len: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Self> {
        let tokens = tokenize(sql)?;
        Ok(Parser { len: sql.len(), tokens, pos: 0 })
    }

    // -- token utilities ---------------------------------------------------

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.len, |t| t.offset)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(Error::Parse { message: message.into(), offset: self.offset() })
    }

    fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            self.err("trailing input after statement")
        }
    }

    fn skip_semicolons(&mut self) {
        while matches!(self.peek(), Some(TokenKind::Semicolon)) {
            self.pos += 1;
        }
    }

    /// Peeks whether the current token is the keyword `kw`.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes keyword `kw` if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {}", kw.to_uppercase()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            self.err(format!("expected {kind:?}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    // -- statements --------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("select") {
            return Ok(Statement::Query(self.query()?));
        }
        if self.at_kw("create") {
            return self.create();
        }
        if self.at_kw("insert") {
            return self.insert();
        }
        if self.at_kw("update") {
            return self.update();
        }
        if self.at_kw("drop") {
            return self.drop();
        }
        if self.eat_kw("explain") {
            if self.eat_kw("analyze") {
                let inner = self.statement()?;
                return Ok(Statement::ExplainAnalyze(Box::new(inner)));
            }
            let q = self.query()?;
            return Ok(Statement::Explain(q));
        }
        self.err("expected SELECT, CREATE, INSERT, UPDATE, DROP or EXPLAIN")
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        let temp = self.eat_kw("temp") || self.eat_kw("temporary");
        if self.eat_kw("view") {
            let name = self.ident()?;
            // `AS` is standard; the paper's listings also write
            // `CREATE VIEW name ( SELECT ... )`.
            if self.eat_kw("as") {
                let query = self.maybe_parenthesized_query()?;
                return Ok(Statement::CreateView { name, query });
            }
            self.expect(&TokenKind::LParen)?;
            let query = self.query()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateView { name, query });
        }
        self.expect_kw("table")?;
        let if_not_exists = if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        if self.eat_kw("as") {
            let query = self.maybe_parenthesized_query()?;
            return Ok(Statement::CreateTable {
                name,
                temp,
                if_not_exists,
                columns: vec![],
                as_query: Some(query),
            });
        }
        self.expect(&TokenKind::LParen)?;
        // The paper's `CREATE TEMP TABLE t ( SELECT ... )` form.
        if self.at_kw("select") {
            let query = self.query()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateTable {
                name,
                temp,
                if_not_exists,
                columns: vec![],
                as_query: Some(query),
            });
        }
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = self.ident()?;
            columns.push((col, DataType::parse(&ty)?));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable { name, temp, if_not_exists, columns, as_query: None })
    }

    fn maybe_parenthesized_query(&mut self) -> Result<Query> {
        if self.eat(&TokenKind::LParen) {
            let q = self.query()?;
            self.expect(&TokenKind::RParen)?;
            Ok(q)
        } else {
            self.query()
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        if self.at_kw("select") {
            let query = self.query()?;
            return Ok(Statement::InsertSelect { table, query });
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
            }
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let predicate = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, assignments, predicate })
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        let kind = if self.eat_kw("view") {
            ObjectKind::View
        } else {
            self.expect_kw("table")?;
            ObjectKind::Table
        };
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::Drop { kind, name, if_exists })
    }

    // -- queries -----------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projections = Vec::new();
        loop {
            if self.eat(&TokenKind::Star) {
                projections.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    // Implicit alias: a bare identifier that is not a clause
                    // keyword.
                    match self.peek() {
                        Some(TokenKind::Ident(s)) if !is_clause_keyword(s) => {
                            let a = s.clone();
                            self.pos += 1;
                            Some(a)
                        }
                        _ => None,
                    }
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.from_item()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let predicate = if self.eat_kw("where") { Some(self.expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };

        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push(OrderByItem { expr, ascending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Some(TokenKind::Number(n)) => Some(n.parse::<u64>().map_err(|_| Error::Parse {
                    message: format!("bad LIMIT '{n}'"),
                    offset: self.offset(),
                })?),
                _ => return self.err("expected a number after LIMIT"),
            }
        } else {
            None
        };

        Ok(Query { distinct, projections, from, predicate, group_by, having, order_by, limit })
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM item; not a conversion
    fn from_item(&mut self) -> Result<FromItem> {
        let factor = self.table_factor()?;
        let mut joins = Vec::new();
        loop {
            let explicit_inner = self.at_kw("inner");
            if explicit_inner || self.at_kw("join") {
                if explicit_inner {
                    self.expect_kw("inner")?;
                }
                self.expect_kw("join")?;
                let f = self.table_factor()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(Join { factor: f, on });
            } else {
                break;
            }
        }
        Ok(FromItem { factor, joins })
    }

    fn table_factor(&mut self) -> Result<TableFactor> {
        if self.eat(&TokenKind::LParen) {
            let query = self.query()?;
            self.expect(&TokenKind::RParen)?;
            // `AS` optional before the derived-table alias.
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableFactor::Derived { query: Box::new(query), alias });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Some(TokenKind::Ident(s))
                    if !RESERVED_AFTER_TABLE.contains(&s.to_ascii_lowercase().as_str()) =>
                {
                    let a = s.clone();
                    self.pos += 1;
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(TableFactor::Named { name, alias })
    }

    // -- expressions ---------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        // Postfix forms desugar immediately: `x [NOT] BETWEEN a AND b`
        // becomes a conjunction, `x [NOT] IN (v, ...)` a disjunction of
        // equalities — no downstream machinery needs to know about them.
        let negated = if self.at_kw("not") {
            let after = self.tokens.get(self.pos + 1).map(|t| &t.kind);
            let is_postfix = matches!(after, Some(TokenKind::Ident(s))
                if s.eq_ignore_ascii_case("between") || s.eq_ignore_ascii_case("in"));
            if is_postfix {
                self.pos += 1;
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            let range = Expr::binary(
                Expr::binary(left.clone(), BinOp::GtEq, lo),
                BinOp::And,
                Expr::binary(left, BinOp::LtEq, hi),
            );
            return Ok(if negated {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(range) }
            } else {
                range
            });
        }
        if self.eat_kw("in") {
            self.expect(&TokenKind::LParen)?;
            let mut alts = Vec::new();
            loop {
                let v = self.expr()?;
                alts.push(Expr::binary(left.clone(), BinOp::Eq, v));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            let any =
                alts.into_iter().reduce(|a, b| Expr::binary(a, BinOp::Or, b)).ok_or_else(|| {
                    Error::Parse { message: "empty IN list".into(), offset: self.offset() }
                })?;
            return Ok(if negated {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(any) }
            } else {
                any
            });
        }
        if negated {
            return self.err("expected BETWEEN or IN after NOT");
        }
        let op = match self.peek() {
            Some(TokenKind::Eq) => Some(BinOp::Eq),
            Some(TokenKind::NotEq) => Some(BinOp::NotEq),
            Some(TokenKind::Lt) => Some(BinOp::Lt),
            Some(TokenKind::LtEq) => Some(BinOp::LtEq),
            Some(TokenKind::Gt) => Some(BinOp::Gt),
            Some(TokenKind::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                Some(TokenKind::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat(&TokenKind::Plus) {
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(TokenKind::Number(n)) => {
                self.pos += 1;
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    let v: f64 = n.parse().map_err(|_| Error::Parse {
                        message: format!("bad number '{n}'"),
                        offset: self.offset(),
                    })?;
                    Ok(Expr::Literal(Literal::Float(v)))
                } else {
                    let v: i64 = n.parse().map_err(|_| Error::Parse {
                        message: format!("bad number '{n}'"),
                        offset: self.offset(),
                    })?;
                    Ok(Expr::Literal(Literal::Int(v)))
                }
            }
            Some(TokenKind::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Str(s)))
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                if self.at_kw("select") {
                    let q = self.query()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            Some(TokenKind::Ident(word)) => {
                if word.eq_ignore_ascii_case("true") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Literal::Bool(true)));
                }
                if word.eq_ignore_ascii_case("false") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Literal::Bool(false)));
                }
                if is_reserved_word(&word) {
                    return self
                        .err(format!("unexpected keyword {} in expression", word.to_uppercase()));
                }
                self.pos += 1;
                // Function call?
                if self.eat(&TokenKind::LParen) {
                    if self.eat(&TokenKind::Star) {
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Function {
                            name: word,
                            args: vec![],
                            star: true,
                            distinct: false,
                        });
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                    }
                    return Ok(Expr::Function { name: word, args, star: false, distinct });
                }
                // Qualified column?
                if self.eat(&TokenKind::Dot) {
                    let name = self.ident()?;
                    return Ok(Expr::Column { qualifier: Some(word), name });
                }
                Ok(Expr::Column { qualifier: None, name: word })
            }
            other => self.err(format!("unexpected token {other:?} in expression")),
        }
    }
}

/// Words that can never begin a column reference in an expression. Kept
/// minimal on purpose — names like `date` or `value` are legal columns.
fn is_reserved_word(word: &str) -> bool {
    matches!(
        word.to_ascii_lowercase().as_str(),
        "select"
            | "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "by"
            | "on"
            | "inner"
            | "join"
            | "as"
            | "set"
            | "values"
            | "into"
            | "union"
            | "create"
            | "insert"
            | "update"
            | "drop"
            | "table"
            | "view"
    )
}

fn is_clause_keyword(word: &str) -> bool {
    matches!(
        word.to_ascii_lowercase().as_str(),
        "from" | "where" | "group" | "having" | "order" | "limit" | "as" | "inner" | "join" | "on"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_table_i_type1_query() {
        let sql = "SELECT sum(meter) FROM FABRIC F, Video V \
                   WHERE F.printdate>'2021-01-01' and F.printdate<'2021-1-31' \
                   and V.date>'2021-01-01' and V.date<'2021-1-31' \
                   and nUDF_classify(V.keyframe)='Floral Pattern'";
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.projections.len(), 1);
        let pred = q.predicate.unwrap();
        assert_eq!(pred.conjuncts().len(), 5);
    }

    #[test]
    fn parses_paper_q1_conv_join() {
        let sql = "CREATE TEMP TABLE Layer_Output( \
                     SELECT MatrixID as TupleID, SUM(A.Value * B.Value) as Value \
                     FROM FeatureMap A INNER JOIN Kernel B ON A.OrderID = B.OrderID \
                     GROUP BY KernelID, MatrixID)";
        let Statement::CreateTable { name, temp, as_query: Some(q), .. } =
            parse_statement(sql).unwrap()
        else {
            panic!("expected CREATE TABLE AS");
        };
        assert_eq!(name, "Layer_Output");
        assert!(temp);
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.from[0].joins.len(), 1);
    }

    #[test]
    fn parses_scalar_subquery_in_projection() {
        // Paper Q4's batch-normalization statement shape.
        let sql = "SELECT MatrixID, ((Value - (SELECT AVG(Value) FROM t)) / \
                   ((SELECT stddevSamp(Value) FROM t) + 0.00005)) as Value FROM t";
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        let SelectItem::Expr { expr, alias } = &q.projections[1] else { panic!() };
        assert_eq!(alias.as_deref(), Some("Value"));
        assert!(expr.any(&|e| matches!(e, Expr::Subquery(_))));
    }

    #[test]
    fn parses_update_relu() {
        let sql = "UPDATE cb_output SET Value = 0 where Value < 0";
        let Statement::Update { table, assignments, predicate } = parse_statement(sql).unwrap()
        else {
            panic!()
        };
        assert_eq!(table, "cb_output");
        assert_eq!(assignments.len(), 1);
        assert!(predicate.is_some());
    }

    #[test]
    fn parses_derived_table_with_alias() {
        let sql = "SELECT a FROM (SELECT 1 as a) as t, u WHERE t.a = u.a";
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        assert_eq!(q.from.len(), 2);
        assert!(matches!(q.from[0].factor, TableFactor::Derived { .. }));
    }

    #[test]
    fn operator_precedence_is_conventional() {
        let e = parse_expression("1 + 2 * 3 = 7 AND true").unwrap();
        // Top is AND.
        let Expr::Binary { op: BinOp::And, left, .. } = e else { panic!("top must be AND") };
        let Expr::Binary { op: BinOp::Eq, left: add, .. } = *left else { panic!("then =") };
        let Expr::Binary { op: BinOp::Add, .. } = *add else { panic!("then +") };
    }

    #[test]
    fn not_and_negation() {
        let e = parse_expression("NOT a = 1").unwrap();
        assert!(matches!(e, Expr::Unary { op: UnaryOp::Not, .. }));
        let n = parse_expression("-x + 1").unwrap();
        let Expr::Binary { left, .. } = n else { panic!() };
        assert!(matches!(*left, Expr::Unary { op: UnaryOp::Neg, .. }));
    }

    #[test]
    fn count_star_and_distinct() {
        let e = parse_expression("count(*)").unwrap();
        assert!(matches!(e, Expr::Function { star: true, .. }));
        let d = parse_expression("count(DISTINCT x)").unwrap();
        assert!(matches!(d, Expr::Function { distinct: true, .. }));
    }

    #[test]
    fn multi_statement_script() {
        let stmts = parse_statements(
            "CREATE TABLE t (a Int64); INSERT INTO t VALUES (1), (2); SELECT a FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn group_order_limit_having() {
        let sql =
            "SELECT k, sum(v) s FROM t GROUP BY k HAVING sum(v) > 1 ORDER BY s DESC, k LIMIT 10";
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].ascending);
        assert!(q.order_by[1].ascending);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn create_and_drop_variants() {
        assert!(matches!(
            parse_statement("CREATE TABLE IF NOT EXISTS t (a Int64, b Float64)").unwrap(),
            Statement::CreateTable { if_not_exists: true, .. }
        ));
        assert!(matches!(
            parse_statement("CREATE VIEW v AS SELECT 1 x").unwrap(),
            Statement::CreateView { .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::Drop { kind: ObjectKind::Table, if_exists: true, .. }
        ));
        assert!(matches!(
            parse_statement("DROP VIEW v").unwrap(),
            Statement::Drop { kind: ObjectKind::View, if_exists: false, .. }
        ));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        assert!(parse_statement("SELECT 1 extra garbage, ,").is_err());
        let err = parse_statement("CREATE INDEX ON t (c)").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "{err:?}");
    }

    #[test]
    fn implicit_aliases_do_not_eat_keywords() {
        let sql =
            "SELECT * FROM FABRIC F INNER JOIN Video V ON F.transID = V.transID WHERE F.x > 1";
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        assert_eq!(q.from[0].factor.binding_name(), "F");
        assert_eq!(q.from[0].joins[0].factor.binding_name(), "V");
    }
}
