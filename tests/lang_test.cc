// Tests for the CloudTalk language: lexer, parser, printer, analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/lang/analysis.h"
#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"

namespace cloudtalk {
namespace lang {
namespace {

// ---- Lexer ----

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("A = (1.2.3.4 disk) ; f A -> 1.2.3.5 size 256M");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokenKind::kIdent);
  EXPECT_EQ(t[0].text, "A");
  EXPECT_EQ(t[1].kind, TokenKind::kEquals);
  EXPECT_EQ(t[2].kind, TokenKind::kLParen);
  EXPECT_EQ(t[3].kind, TokenKind::kAddress);
  EXPECT_EQ(t[3].text, "1.2.3.4");
  EXPECT_EQ(t[4].text, "disk");
  EXPECT_EQ(t[5].kind, TokenKind::kRParen);
  EXPECT_EQ(t[6].kind, TokenKind::kSeparator);
}

TEST(LexerTest, NumberSuffixes) {
  auto tokens = Tokenize("1K 2M 3G 10KB 1.5M 42");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = tokens.value();
  EXPECT_DOUBLE_EQ(t[0].number, 1024.0);
  EXPECT_DOUBLE_EQ(t[1].number, 2 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(t[2].number, 3 * 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(t[3].number, 10 * 1024.0);
  EXPECT_DOUBLE_EQ(t[4].number, 1.5 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(t[5].number, 42.0);
}

TEST(LexerTest, ArrowForms) {
  auto tokens = Tokenize("a -> b > c - d");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = tokens.value();
  EXPECT_EQ(t[1].kind, TokenKind::kArrow);
  EXPECT_EQ(t[3].kind, TokenKind::kArrow);
  EXPECT_EQ(t[5].kind, TokenKind::kMinus);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("a # this is a comment\nb");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = tokens.value();
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[1].kind, TokenKind::kSeparator);
  EXPECT_EQ(t[2].text, "b");
}

TEST(LexerTest, NewlinesCollapse) {
  auto tokens = Tokenize("a\n\n\n;;b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().size(), 4u);  // a, separator, b, eof.
}

TEST(LexerTest, PositionsTracked) {
  auto tokens = Tokenize("a\n  b");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = tokens.value();
  EXPECT_EQ(t[2].line, 2);
  EXPECT_EQ(t[2].column, 3);
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("a @ b").ok());
}


TEST(LexerTest, SuffixAtEndOfInput) {
  auto tokens = Tokenize("1K");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value()[0].number, 1024.0);
}

TEST(LexerTest, PlainDecimal) {
  auto tokens = Tokenize("1.5 0.25");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value()[0].number, 1.5);
  EXPECT_DOUBLE_EQ(tokens.value()[1].number, 0.25);
}

TEST(LexerTest, TwoDotNumberRejected) {
  EXPECT_FALSE(Tokenize("1.2.3").ok());  // Neither number nor address.
}

TEST(LexerTest, EmptyAndCommentOnlyInputs) {
  auto empty = Tokenize("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().back().kind, TokenKind::kEof);
  auto comment = Tokenize("# nothing here\n");
  ASSERT_TRUE(comment.ok());
  EXPECT_EQ(comment.value().back().kind, TokenKind::kEof);
}

TEST(ParserTest, EmptyQueryIsValid) {
  auto query = Parse("");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query.value().flows.empty());
}

TEST(AstTest, EndpointToString) {
  EXPECT_EQ(Endpoint::Address("10.1.2.3").ToString(), "10.1.2.3");
  EXPECT_EQ(Endpoint::Variable("X").ToString(), "X");
  EXPECT_EQ(Endpoint::Disk().ToString(), "disk");
  EXPECT_EQ(Endpoint::Unknown().ToString(), "0.0.0.0");
}

TEST(AstTest, ExprCloneIsDeep) {
  auto query = Parse("f1 a -> b size (1M + 2M) * 3\n");
  ASSERT_TRUE(query.ok());
  const Expr* size = query.value().flows[0].FindAttr(Attr::kSize);
  ASSERT_NE(size, nullptr);
  ExprPtr clone = size->Clone();
  EXPECT_EQ(clone->ToString(), size->ToString());
  EXPECT_NE(clone.get(), size);
  EXPECT_NE(clone->lhs.get(), size->lhs.get());
}

// ---- Parser: the paper's own queries ----

// Figure 2: replica selection.
TEST(ParserTest, Figure2ReplicaQuery) {
  auto query = Parse(
      "A = (vm2 vm3)\n"
      "f1 A -> vm1 size 256M\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  const Query& q = query.value();
  ASSERT_EQ(q.variables.size(), 1u);
  EXPECT_EQ(q.variables[0].names, std::vector<std::string>{"A"});
  ASSERT_EQ(q.variables[0].values.size(), 2u);
  ASSERT_EQ(q.flows.size(), 1u);
  EXPECT_EQ(q.flows[0].name, "f1");
  EXPECT_EQ(q.flows[0].src.kind, Endpoint::Kind::kVariable);
  EXPECT_EQ(q.flows[0].dst.kind, Endpoint::Kind::kAddress);
  const Expr* size = q.flows[0].FindAttr(Attr::kSize);
  ASSERT_NE(size, nullptr);
  EXPECT_DOUBLE_EQ(size->literal, 256 * 1024.0 * 1024.0);
}

// Section 4.1: HDFS read with disk dependency.
TEST(ParserTest, DiskReadChain) {
  auto query = Parse(
      "A = (vm1 vm2 vm3)\n"
      "f1 disk -> A size 100M rate r(f2)\n"
      "f2 A -> vm1 size sz(f1) rate r(f1)\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  const Query& q = query.value();
  ASSERT_EQ(q.flows.size(), 2u);
  EXPECT_EQ(q.flows[0].src.kind, Endpoint::Kind::kDisk);
  const Expr* rate = q.flows[0].FindAttr(Attr::kRate);
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->kind, Expr::Kind::kRef);
  EXPECT_EQ(rate->ref_attr, Attr::kRate);
  EXPECT_EQ(rate->ref_flow, "f2");
}

// Section 5.3: the full HDFS write pipeline query.
TEST(ParserTest, HdfsWritePipeline) {
  auto query = Parse(
      "r1 = r2 = r3 = (dn1 dn2 dn3 dn4 dn5)\n"
      "f1 client -> r1 size 256M rate r(f2)\n"
      "f2 r1 -> disk size 256M rate r(f1)\n"
      "f3 r1 -> r2 size 256M rate r(f4) transfer t(f2)\n"
      "f4 r2 -> disk size 256M rate r(f3)\n"
      "f5 r2 -> r3 size 256M rate r(f6) transfer t(f4)\n"
      "f6 r3 -> disk size 256M rate r(f5)\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  const Query& q = query.value();
  ASSERT_EQ(q.variables.size(), 1u);
  EXPECT_EQ(q.variables[0].names.size(), 3u);
  EXPECT_EQ(q.flows.size(), 6u);
  EXPECT_EQ(q.flows[2].dst.kind, Endpoint::Kind::kVariable);
  EXPECT_EQ(q.flows[2].dst.name, "r2");
}

// Section 5.3: reduce placement with unknown sources.
TEST(ParserTest, UnknownSourceReduceQuery) {
  auto query = Parse(
      "x1 = x2 = (node1 node2 node3)\n"
      "f1 0.0.0.0 -> x1 size 1G rate r(f2)\n"
      "f2 x1 -> disk size 1G rate r(f1)\n"
      "f3 0.0.0.0 -> x2 size 1G rate r(f4)\n"
      "f4 x2 -> disk size 1G rate r(f3)\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  EXPECT_EQ(query.value().flows[0].src.kind, Endpoint::Kind::kUnknown);
}

// Section 5.4: web-search aggregator placement (unnamed flows, '>' arrow,
// flows without explicit size).
TEST(ParserTest, WebSearchQuery) {
  auto query = Parse(
      "AGG1 = AGG2 = (svr1 svr2 svr3)\n"
      "f1a svr1 -> AGG1 size 10KB\n"
      "f1b AGG1 -> frontend transfer t(f1a)\n"
      "f51a svr51 > AGG2 size 10KB\n"
      "f51b AGG2 -> frontend transfer t(f51a)\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  const Query& q = query.value();
  EXPECT_EQ(q.flows.size(), 4u);
}

TEST(ParserTest, UnnamedFlowsGetStableNames) {
  auto query = Parse("a -> b size 1M\nc -> d size 2M");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query.value().flows[0].name, "_f1");
  EXPECT_EQ(query.value().flows[1].name, "_f2");
  EXPECT_FALSE(query.value().flows[0].explicit_name);
}

TEST(ParserTest, Options) {
  auto query = Parse("option packet\noption static\noption allow_same\na -> b size 1M");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query.value().options.use_packet_simulator);
  EXPECT_FALSE(query.value().options.use_dynamic_load);
  EXPECT_TRUE(query.value().options.allow_same_binding);
  EXPECT_EQ(query.value().options.eval_threads, 0);  // Unset: server default.
}

TEST(ParserTest, OptionThreads) {
  auto query = Parse("option threads 4\na -> b size 1M");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  EXPECT_EQ(query.value().options.eval_threads, 4);
}

TEST(ParserTest, OptionThreadsErrors) {
  EXPECT_FALSE(Parse("option threads\na -> b size 1M").ok());       // Missing count.
  EXPECT_FALSE(Parse("option threads 0\na -> b size 1M").ok());     // Not positive.
  EXPECT_FALSE(Parse("option threads 1.5\na -> b size 1M").ok());   // Not integral.
  EXPECT_FALSE(Parse("option threads 4096\na -> b size 1M").ok());  // Above cap.
}

TEST(PrinterTest, RoundTripOptionThreads) {
  auto query = Parse("option threads 8\nf1 a -> b size 1M\n");
  ASSERT_TRUE(query.ok());
  const std::string printed = query.value().ToString();
  EXPECT_NE(printed.find("option threads 8"), std::string::npos) << printed;
  auto reparsed = Parse(printed);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(reparsed.value().options.eval_threads, 8);
}

TEST(ParserTest, ExpressionArithmetic) {
  auto query = Parse("f a -> b size (2M + 1M) * 2\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  EXPECT_DOUBLE_EQ(compiled.value().flows()[0].size, 6 * 1024.0 * 1024.0);
}

// ---- Parser error cases ----

TEST(ParserTest, RejectsEmptyPool) {
  EXPECT_FALSE(Parse("A = ()\n").ok());
}

TEST(ParserTest, RejectsDuplicateVariable) {
  EXPECT_FALSE(Parse("A = (x)\nA = (y)\n").ok());
}

TEST(ParserTest, RejectsDuplicateFlowName) {
  EXPECT_FALSE(Parse("f1 a -> b size 1M\nf1 c -> d size 1M\n").ok());
}

TEST(ParserTest, RejectsUndefinedFlowReference) {
  EXPECT_FALSE(Parse("f1 a -> b size sz(nope)\n").ok());
}

TEST(ParserTest, RejectsDiskToDisk) {
  EXPECT_FALSE(Parse("disk -> disk size 1M\n").ok());
}

TEST(ParserTest, RejectsDuplicateAttribute) {
  EXPECT_FALSE(Parse("a -> b size 1M size 2M\n").ok());
}

TEST(ParserTest, RejectsUnknownAttribute) {
  EXPECT_FALSE(Parse("a -> b bogus 1M\n").ok());
}

TEST(ParserTest, RejectsUnknownOption) {
  EXPECT_FALSE(Parse("option bogus\n").ok());
}

TEST(ParserTest, RejectsDeepNesting) {
  // Past 256 levels the parser fails with E007 before recursing or building
  // further, whether the depth comes from parentheses, unary minus, or a
  // long operator chain.
  const auto repeat = [](const std::string& piece, int count) {
    std::string out;
    for (int i = 0; i < count; ++i) {
      out += piece;
    }
    return out;
  };
  const std::string too_deep[] = {
      "f a -> b size " + repeat("(", 20000) + "1M" + repeat(")", 20000) + "\n",
      "f a -> b size 1M rate " + repeat("-", 100000) + "1M\n",
      "f a -> b size 1M" + repeat("+1M", 99999) + "\n",
      "f a -> b size " + repeat("(", 257) + "1M" + repeat(")", 257) + "\n",
  };
  for (const std::string& text : too_deep) {
    auto query = Parse(text);
    ASSERT_FALSE(query.ok()) << text.size() << " bytes";
    EXPECT_NE(query.error().message.find("[E007]"), std::string::npos)
        << query.error().ToString();
  }
  // 200 levels of each kind still parse, and so do exactly 256.
  const std::string deep_enough[] = {
      "f a -> b size " + repeat("(", 256) + "1M" + repeat(")", 256) + "\n",
      "f a -> b size " + repeat("(", 200) + "1M" + repeat(")", 200) + "\n",
      "f a -> b size 1M rate " + repeat("-", 200) + "1M\n",
      "f a -> b size 1M" + repeat("+1M", 199) + "\n",
  };
  for (const std::string& text : deep_enough) {
    auto query = Parse(text);
    EXPECT_TRUE(query.ok()) << query.error().ToString();
  }
}

TEST(ParserTest, ErrorCarriesPosition) {
  auto query = Parse("a -> b size 1M\nc -> ");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.error().line, 2);
}

// ---- Printer round-trip ----

TEST(PrinterTest, RoundTrip) {
  const std::string text =
      "r1 = r2 = (dn1 dn2 dn3)\n"
      "f1 client -> r1 size 256M rate r(f2)\n"
      "f2 r1 -> disk size 256M rate r(f1)\n";
  auto query = Parse(text);
  ASSERT_TRUE(query.ok());
  const std::string printed = query.value().ToString();
  auto reparsed = Parse(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString() << "\n" << printed;
  EXPECT_EQ(reparsed.value().ToString(), printed);
}

TEST(PrinterTest, RoundTripWithExpressions) {
  const std::string text = "f1 a -> b size 1M\nf2 b -> c size sz(f1) * 2 transfer t(f1)\n";
  auto query = Parse(text);
  ASSERT_TRUE(query.ok());
  auto reparsed = Parse(query.value().ToString());
  ASSERT_TRUE(reparsed.ok()) << query.value().ToString();
  EXPECT_EQ(reparsed.value().ToString(), query.value().ToString());
}

// ---- Analysis ----

TEST(AnalysisTest, ChainGroupingHdfsWrite) {
  auto query = Parse(
      "r1 = r2 = r3 = (dn1 dn2 dn3 dn4)\n"
      "f1 client -> r1 size 256M rate r(f2)\n"
      "f2 r1 -> disk size 256M rate r(f1)\n"
      "f3 r1 -> r2 size 256M rate r(f4) transfer t(f2)\n"
      "f4 r2 -> disk size 256M rate r(f3)\n"
      "f5 r2 -> r3 size 256M rate r(f6) transfer t(f4)\n"
      "f6 r3 -> disk size 256M rate r(f5)\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok()) << compiled.error().ToString();
  // All six flows are transitively coupled into one chain group.
  ASSERT_EQ(compiled.value().groups().size(), 1u);
  EXPECT_EQ(compiled.value().groups()[0].flow_indices.size(), 6u);
}

// One pass gives the name index (last definition wins), the size edges
// (the size's references, else the first transfer reference), the transfer
// edges (self-references kept) and the chain groups, numbered at their
// lowest members as CompiledQuery::groups() lists them.
TEST(AnalysisTest, FlowGraphIndexesEdgesAndGroups) {
  const Query query = Parse(
                          "a v1 -> v2 size 1M\n"
                          "b v2 -> v3 size sz(a) + st(c)\n"
                          "c v3 -> v4 transfer t(a) + t(c) rate r(e)\n"
                          "d v4 -> v5 size 2M\n"
                          "e v5 -> v6 size 1M\n")
                          .value();
  const FlowGraph graph(query);
  EXPECT_EQ(graph.Find("c"), 2);
  EXPECT_EQ(graph.Find("nosuch"), -1);
  ASSERT_EQ(graph.size_edges(1).size(), 2u);
  EXPECT_EQ(graph.size_edges(1)[0].flow, 0);
  EXPECT_EQ(graph.size_edges(1)[1].flow, 2);
  EXPECT_EQ(graph.size_edges(1)[1].expr->ref_attr, Attr::kStart);
  ASSERT_EQ(graph.size_edges(2).size(), 1u);  // Only the first transfer reference.
  EXPECT_EQ(graph.size_edges(2)[0].flow, 0);
  EXPECT_EQ(std::vector<int>(graph.transfer_edges(2).begin(), graph.transfer_edges(2).end()),
            (std::vector<int>{0, 2}));
  EXPECT_TRUE(graph.transfer_edges(0).empty());
  // {a, c, e} joined by t(a) and r(e); b and d stand alone.
  EXPECT_EQ(graph.num_groups(), 3);
  EXPECT_EQ(graph.group(0), 0);
  EXPECT_EQ(graph.group(1), 1);
  EXPECT_EQ(graph.group(2), 0);
  EXPECT_EQ(graph.group(3), 2);
  EXPECT_EQ(graph.group(4), 0);

  Query duplicate = Parse("a v1 -> v2 size 1M\nb v2 -> v3 size 1M\n").value();
  duplicate.flows[1].name = "a";
  EXPECT_EQ(FlowGraph(duplicate).Find("a"), 1);
}

TEST(AnalysisTest, IndependentFlowsSeparateGroups) {
  auto query = Parse("f1 a -> b size 1M\nf2 c -> d size 1M\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value().groups().size(), 2u);
}

TEST(AnalysisTest, VariableCommunicationSets) {
  auto query = Parse(
      "X = Y = Z = (a b c)\n"
      "f1 X -> Y size 100M\n"
      "f2 Z -> a size 100M\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  const CompiledQuery& cq = compiled.value();
  const VarComm& x = cq.variables()[cq.VariableIndex("X")];
  const VarComm& y = cq.variables()[cq.VariableIndex("Y")];
  const VarComm& z = cq.variables()[cq.VariableIndex("Z")];
  ASSERT_EQ(x.tx_to.size(), 1u);
  EXPECT_EQ(x.tx_to[0], Endpoint::Variable("Y"));
  EXPECT_TRUE(x.rx_from.empty());
  ASSERT_EQ(y.rx_from.size(), 1u);
  EXPECT_EQ(y.rx_from[0], Endpoint::Variable("X"));
  ASSERT_EQ(z.tx_to.size(), 1u);
  EXPECT_EQ(z.tx_to[0], Endpoint::Address("a"));
}

// One variable sending to 20 000 distinct hosts compiles in linear time:
// tx_to lists each destination once, in source order.
TEST(AnalysisTest, FanOutToTwentyThousandHostsKeepsSourceOrder) {
  constexpr int kHosts = 20000;
  std::string source = "A = (10.9.0.1 10.9.0.2)\n";
  std::vector<Endpoint> hosts;
  for (int k = 1; k <= kHosts; ++k) {
    hosts.push_back(Endpoint::Address("10." + std::to_string(k >> 16) + "." +
                                      std::to_string((k >> 8) & 255) + "." +
                                      std::to_string(k & 255)));
    source += "A -> " + hosts.back().name + " size 1M\n";
  }
  source += "A -> " + hosts.front().name + " size 2M\n";  // A repeated destination.
  auto query = Parse(source);
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  const CompiledQuery& cq = compiled.value();
  EXPECT_EQ(cq.flows().size(), static_cast<size_t>(kHosts + 1));
  const VarComm& a = cq.variables()[cq.VariableIndex("A")];
  ASSERT_EQ(a.tx_to.size(), static_cast<size_t>(kHosts));
  EXPECT_TRUE(a.tx_to == hosts);
}

// A name declared twice (E002) still compiles on the parser's partial AST,
// where it resolves to its first declaration. A peer sent to twice is listed
// once.
TEST(AnalysisTest, DuplicateVariableResolvesToFirstDeclaration) {
  DiagnosticSink sink;
  const Query query = ParseWithDiagnostics(
      "A = (x)\nA = (y)\nf1 A -> z size 1M\nf2 A -> z size 2M\n", &sink);
  EXPECT_TRUE(sink.has_errors());
  auto compiled = CompiledQuery::Compile(query);
  ASSERT_TRUE(compiled.ok());
  const CompiledQuery& cq = compiled.value();
  ASSERT_EQ(cq.variables().size(), 2u);
  EXPECT_EQ(cq.VariableIndex("A"), 0);
  EXPECT_EQ(cq.variables()[0].tx_to, std::vector<Endpoint>{Endpoint::Address("z")});
  EXPECT_TRUE(cq.variables()[1].tx_to.empty());
}

TEST(AnalysisTest, DiskFlagsSet) {
  auto query = Parse(
      "A = (x y)\n"
      "f1 disk -> A size 1M\n"
      "f2 A -> disk size 1M\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  const VarComm& a = compiled.value().variables()[0];
  EXPECT_TRUE(a.reads_disk);
  EXPECT_TRUE(a.writes_disk);
  EXPECT_TRUE(a.tx_to.empty());
  EXPECT_TRUE(a.rx_from.empty());
}

TEST(AnalysisTest, TransferInheritsSize) {
  auto query = Parse(
      "f1 a -> b size 10KB\n"
      "f2 b -> c transfer t(f1)\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok()) << compiled.error().ToString();
  EXPECT_DOUBLE_EQ(compiled.value().flows()[1].size, 10 * 1024.0);
}

TEST(AnalysisTest, RateLimitConvertsBytesToBits) {
  auto query = Parse("f1 a -> b size 1M rate 1K\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  // 1 KiB/s = 8192 bits/s.
  EXPECT_DOUBLE_EQ(compiled.value().groups()[0].rate_limit, 8192.0);
}

TEST(AnalysisTest, CyclicSizeReferenceRejected) {
  auto query = Parse(
      "f1 a -> b size sz(f2)\n"
      "f2 b -> c size sz(f1)\n");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(CompiledQuery::Compile(query.value()).ok());
}

TEST(AnalysisTest, MissingSizeRejected) {
  auto query = Parse("f1 a -> b rate 1M\n");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(CompiledQuery::Compile(query.value()).ok());
}

TEST(AnalysisTest, StartTimesPropagate) {
  auto query = Parse("f1 a -> b size 1M start 2\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  EXPECT_DOUBLE_EQ(compiled.value().flows()[0].start, 2.0);
  EXPECT_DOUBLE_EQ(compiled.value().groups()[0].start, 2.0);
}



TEST(AnalysisTest, EndAttributeBecomesGroupDeadline) {
  auto query = Parse("f1 a -> b size 1M end 5\nf2 c -> d size 1M\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  const int g1 = compiled.value().flows()[0].group;
  const int g2 = compiled.value().flows()[1].group;
  EXPECT_DOUBLE_EQ(compiled.value().groups()[g1].deadline, 5.0);
  EXPECT_TRUE(std::isinf(compiled.value().groups()[g2].deadline));
}

// ---- Section 7 extension: scalar requirements ----

TEST(ParserTest, RequirementsParsed) {
  auto query = Parse(
      "X = (a b)\n"
      "X requires cpu 4 mem 8G\n"
      "f1 X -> a size 1M\n");
  ASSERT_TRUE(query.ok()) << query.error().ToString();
  ASSERT_EQ(query.value().requirements.size(), 1u);
  EXPECT_EQ(query.value().requirements[0].var, "X");
  EXPECT_DOUBLE_EQ(query.value().requirements[0].cpu_cores, 4.0);
  EXPECT_DOUBLE_EQ(query.value().requirements[0].memory, 8.0 * 1024 * 1024 * 1024);
}

TEST(ParserTest, RequirementCpuOnly) {
  auto query = Parse("X = (a)\nX requires cpu 2\nf1 X -> a size 1M\n");
  ASSERT_TRUE(query.ok());
  EXPECT_DOUBLE_EQ(query.value().requirements[0].cpu_cores, 2.0);
  EXPECT_DOUBLE_EQ(query.value().requirements[0].memory, 0.0);
}

TEST(ParserTest, RequirementErrors) {
  EXPECT_FALSE(Parse("X requires cpu 2\n").ok());            // Undeclared.
  EXPECT_FALSE(Parse("X = (a)\nX requires\n").ok());          // Empty.
  EXPECT_FALSE(Parse("X = (a)\nX requires cpu\n").ok());      // Missing number.
  EXPECT_FALSE(
      Parse("X = (a)\nX requires cpu 1\nX requires mem 1G\n").ok());  // Duplicate.
}

TEST(PrinterTest, RoundTripWithRequirementsAndOptions) {
  const std::string text =
      "option allow_same\n"
      "X = (a b)\n"
      "X requires cpu 4 mem 8G\n"
      "f1 X -> a size 1M\n";
  auto query = Parse(text);
  ASSERT_TRUE(query.ok());
  auto reparsed = Parse(query.value().ToString());
  ASSERT_TRUE(reparsed.ok()) << query.value().ToString();
  EXPECT_EQ(reparsed.value().ToString(), query.value().ToString());
  EXPECT_TRUE(reparsed.value().options.allow_same_binding);
  ASSERT_EQ(reparsed.value().requirements.size(), 1u);
}

TEST(AnalysisTest, RequirementsReachVarComm) {
  auto query = Parse("X = (a b)\nX requires cpu 4 mem 2G\nf1 X -> a size 1M\n");
  ASSERT_TRUE(query.ok());
  auto compiled = CompiledQuery::Compile(query.value());
  ASSERT_TRUE(compiled.ok());
  const VarComm& x = compiled.value().variables()[0];
  EXPECT_DOUBLE_EQ(x.cpu_required, 4.0);
  EXPECT_DOUBLE_EQ(x.mem_required, 2.0 * 1024 * 1024 * 1024);
}

}  // namespace
}  // namespace lang
}  // namespace cloudtalk
