#include "asm/assembler.hh"

#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "analysis/verifier.hh"
#include "asm/lexer.hh"
#include "common/logging.hh"
#include "isa/encoding.hh"
#include "isa/registers.hh"

namespace msim::assembler {

namespace {

using isa::Format;
using isa::InstClass;
using isa::Instruction;
using isa::Opcode;
using isa::StopKind;
using isa::TagBits;

/** A symbolic or literal expression: symbol + addend, or literal. */
struct Expr
{
    bool hasSymbol = false;
    std::string symbol;
    std::int64_t addend = 0;

    static Expr
    literal(std::int64_t v)
    {
        Expr e;
        e.addend = v;
        return e;
    }
};

/** How a ProtoInst's expression maps onto the instruction. */
enum class ImmRole : std::uint8_t {
    kNone,        //!< no expression operand
    kImm,         //!< plain immediate
    kShamt,       //!< shift amount
    kBranch,      //!< branch target address
    kJump,        //!< jump target address
    kHi16,        //!< (value >> 16) & 0xffff (lui of la/li)
    kLo16,        //!< value & 0xffff (ori of la/li)
    kHiAdj16,     //!< ((value + 0x8000) >> 16) & 0xffff
    kLoSigned16,  //!< sign-extended low half (pairs with kHiAdj16)
};

/** An instruction awaiting symbol resolution. */
struct ProtoInst
{
    Opcode op = Opcode::kNop;
    RegIndex rd = kNoReg;
    RegIndex rs = kNoReg;
    RegIndex rt = kNoReg;
    RegIndex rel2 = kNoReg;
    Expr expr;
    ImmRole role = ImmRole::kNone;
    TagBits tags;
    int lineNo = 0;
};

/** A .word/.half/.byte data cell awaiting symbol resolution. */
struct DataFixup
{
    size_t offset;   //!< byte offset within the data image
    unsigned size;   //!< 1, 2 or 4 bytes
    Expr expr;
    int lineNo = 0;
};

/** A declared successor target of a .task block. */
struct TargetDecl
{
    TargetSpec spec = TargetSpec::kNormal;
    std::string label;     //!< empty for ret targets
    std::string retLabel;  //!< continuation for call targets
    int lineNo = 0;
};

/** A .task block awaiting symbol resolution. */
struct TaskDecl
{
    std::string label;
    std::vector<TargetDecl> targets;
    RegMask createMask;
    int lineNo = 0;
};

class Assembler
{
  public:
    Assembler(const std::string &source, const AsmOptions &opts)
        : source_(source), opts_(opts)
    {
    }

    Program run();

  private:
    enum class Section { kText, kData };

    [[noreturn]] void
    err(int line_no, const std::string &msg) const
    {
        fatal(opts_.fileName, ":", line_no, ": ", msg);
    }

    // --- pass 1 -----------------------------------------------------
    void passOne();
    bool lineEnabled(std::vector<Token> &toks, int line_no) const;
    void handleLabel(const std::string &name, int line_no);
    void handleDirective(const std::vector<Token> &toks, int line_no);

    // Instruction-parsing helpers.
    TagBits takeTags(std::vector<Token> &toks, int line_no) const;
    Expr parseExpr(const std::vector<Token> &toks, size_t &pos,
                   int line_no) const;
    RegIndex needReg(const std::vector<Token> &toks, size_t &pos,
                     int line_no) const;
    void needComma(const std::vector<Token> &toks, size_t &pos,
                   int line_no) const;
    bool atEnd(const std::vector<Token> &toks, size_t pos) const;
    void emit(ProtoInst pi, int line_no);
    void emitLoadImm(RegIndex rd, const Expr &e, TagBits tags,
                     int line_no);
    void parseRealInstruction(Opcode op, const std::vector<Token> &toks,
                              size_t pos, TagBits tags, int line_no);
    bool parsePseudo(const std::string &mnemonic,
                     const std::vector<Token> &toks, size_t pos,
                     TagBits tags, int line_no);

    // Data emission helpers.
    void dataBytes(const void *p, size_t n);
    void alignData(unsigned alignment);

    // --- pass 2 -----------------------------------------------------
    void passTwo(Program &prog);
    std::int64_t evalExpr(const Expr &e, int line_no) const;
    Addr labelAddr(const std::string &name, int line_no) const;

    // --- state ------------------------------------------------------
    const std::string &source_;
    const AsmOptions &opts_;

    Section section_ = Section::kText;
    Addr textLc_ = kTextBase;            //!< text location counter
    std::vector<ProtoInst> protos_;
    std::vector<std::uint8_t> dataImage_;
    std::vector<DataFixup> dataFixups_;
    std::map<std::string, Addr> symbols_;
    std::vector<TaskDecl> tasks_;
    bool inTask_ = false;
    std::string entryLabel_;
};

bool
Assembler::atEnd(const std::vector<Token> &toks, size_t pos) const
{
    return pos >= toks.size();
}

bool
Assembler::lineEnabled(std::vector<Token> &toks, int line_no) const
{
    while (!toks.empty() && toks.front().kind == TokKind::kAt) {
        const std::string &p = toks.front().text;
        bool enabled;
        if (p == "@ms") {
            enabled = opts_.multiscalar;
        } else if (p == "@sc") {
            enabled = !opts_.multiscalar;
        } else if (p.rfind("@def(", 0) == 0 && p.back() == ')') {
            enabled = opts_.defines.count(p.substr(5, p.size() - 6)) > 0;
        } else if (p.rfind("@ndef(", 0) == 0 && p.back() == ')') {
            enabled = opts_.defines.count(p.substr(6, p.size() - 7)) == 0;
        } else {
            err(line_no, "unknown mode prefix '" + p + "'");
        }
        if (!enabled)
            return false;
        toks.erase(toks.begin());
    }
    return true;
}

void
Assembler::handleLabel(const std::string &name, int line_no)
{
    if (symbols_.count(name))
        err(line_no, "duplicate label '" + name + "'");
    symbols_[name] = section_ == Section::kText
                         ? textLc_
                         : Addr(kDataBase + dataImage_.size());
}

void
Assembler::dataBytes(const void *p, size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    dataImage_.insert(dataImage_.end(), b, b + n);
}

void
Assembler::alignData(unsigned alignment)
{
    while (dataImage_.size() % alignment != 0)
        dataImage_.push_back(0);
}

TagBits
Assembler::takeTags(std::vector<Token> &toks, int line_no) const
{
    TagBits tags;
    while (!toks.empty() && toks.back().kind == TokKind::kTag) {
        const std::string &t = toks.back().text;
        if (!opts_.multiscalar) {
            toks.pop_back();
            continue;
        }
        if (t == "!f") {
            tags.forward = true;
        } else {
            if (tags.stop != StopKind::kNone)
                err(line_no, "multiple stop tags");
            if (t == "!s")
                tags.stop = StopKind::kAlways;
            else if (t == "!st")
                tags.stop = StopKind::kIfTaken;
            else if (t == "!sn")
                tags.stop = StopKind::kIfNotTaken;
        }
        toks.pop_back();
    }
    return tags;
}

Expr
Assembler::parseExpr(const std::vector<Token> &toks, size_t &pos,
                     int line_no) const
{
    if (atEnd(toks, pos))
        err(line_no, "expected expression");
    Expr e;
    bool neg = false;
    if (toks[pos].kind == TokKind::kMinus) {
        neg = true;
        ++pos;
        if (atEnd(toks, pos))
            err(line_no, "expected expression after '-'");
    }
    const Token &t = toks[pos];
    if (t.kind == TokKind::kNumber) {
        e.addend = parseInt(t, line_no, opts_.fileName);
        if (neg)
            e.addend = -e.addend;
        ++pos;
    } else if (t.kind == TokKind::kIdent && !neg) {
        e.hasSymbol = true;
        e.symbol = t.text;
        ++pos;
    } else {
        err(line_no, "expected expression, got '" + t.text + "'");
    }
    // Optional +N / -N suffix.
    while (!atEnd(toks, pos) && (toks[pos].kind == TokKind::kPlus ||
                                 toks[pos].kind == TokKind::kMinus)) {
        bool minus = toks[pos].kind == TokKind::kMinus;
        ++pos;
        if (atEnd(toks, pos) || toks[pos].kind != TokKind::kNumber)
            err(line_no, "expected number in expression");
        std::int64_t v = parseInt(toks[pos], line_no, opts_.fileName);
        e.addend += minus ? -v : v;
        ++pos;
    }
    return e;
}

RegIndex
Assembler::needReg(const std::vector<Token> &toks, size_t &pos,
                   int line_no) const
{
    if (atEnd(toks, pos) || toks[pos].kind != TokKind::kReg)
        err(line_no, "expected register");
    return toks[pos++].reg;
}

void
Assembler::needComma(const std::vector<Token> &toks, size_t &pos,
                     int line_no) const
{
    if (atEnd(toks, pos) || toks[pos].kind != TokKind::kComma)
        err(line_no, "expected ','");
    ++pos;
}

void
Assembler::emit(ProtoInst pi, int line_no)
{
    pi.lineNo = line_no;
    protos_.push_back(std::move(pi));
    textLc_ += kInstrBytes;
}

void
Assembler::emitLoadImm(RegIndex rd, const Expr &e, TagBits tags,
                       int line_no)
{
    if (!e.hasSymbol) {
        const std::int64_t v = e.addend;
        if (v >= isa::kMinImm16 && v <= isa::kMaxImm16) {
            ProtoInst pi;
            pi.op = Opcode::kAddiu;
            pi.rd = rd;
            pi.rs = isa::intReg(isa::kRegZero);
            pi.expr = e;
            pi.role = ImmRole::kImm;
            pi.tags = tags;
            emit(pi, line_no);
            return;
        }
        if (v >= 0 && v <= std::int64_t(isa::kMaxUImm16)) {
            ProtoInst pi;
            pi.op = Opcode::kOri;
            pi.rd = rd;
            pi.rs = isa::intReg(isa::kRegZero);
            pi.expr = e;
            pi.role = ImmRole::kImm;
            pi.tags = tags;
            emit(pi, line_no);
            return;
        }
    }
    ProtoInst hi;
    hi.op = Opcode::kLui;
    hi.rd = rd;
    hi.expr = e;
    hi.role = ImmRole::kHi16;
    emit(hi, line_no);
    ProtoInst lo;
    lo.op = Opcode::kOri;
    lo.rd = rd;
    lo.rs = rd;
    lo.expr = e;
    lo.role = ImmRole::kLo16;
    lo.tags = tags;
    emit(lo, line_no);
}

void
Assembler::parseRealInstruction(Opcode op, const std::vector<Token> &toks,
                                size_t pos, TagBits tags, int line_no)
{
    const isa::OpInfo &info = isa::opInfo(op);
    ProtoInst pi;
    pi.op = op;
    pi.tags = tags;

    auto finish = [&] {
        if (!atEnd(toks, pos))
            err(line_no, "trailing operands");
        emit(pi, line_no);
    };

    switch (info.format) {
      case Format::kR3:
        pi.rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        // Standard assembler convenience: a register-form mnemonic
        // with an immediate third operand becomes the immediate form
        // (the paper's Figure 4 writes "addu $20, $20, 16").
        if (!atEnd(toks, pos) && toks[pos].kind != TokKind::kReg) {
            Expr e = parseExpr(toks, pos, line_no);
            bool negate = false;
            switch (op) {
              case Opcode::kAdd:
                pi.op = Opcode::kAddi;
                break;
              case Opcode::kAddu:
                pi.op = Opcode::kAddiu;
                break;
              case Opcode::kSub:
                pi.op = Opcode::kAddi;
                negate = true;
                break;
              case Opcode::kSubu:
                pi.op = Opcode::kAddiu;
                negate = true;
                break;
              case Opcode::kAnd:
                pi.op = Opcode::kAndi;
                break;
              case Opcode::kOr:
                pi.op = Opcode::kOri;
                break;
              case Opcode::kXor:
                pi.op = Opcode::kXori;
                break;
              case Opcode::kSlt:
                pi.op = Opcode::kSlti;
                break;
              case Opcode::kSltu:
                pi.op = Opcode::kSltiu;
                break;
              case Opcode::kMul:
              case Opcode::kDiv:
              case Opcode::kRem:
              case Opcode::kNor: {
                // No immediate form: load into $at first.
                emitLoadImm(isa::intReg(isa::kRegAt), e, TagBits{},
                            line_no);
                pi.rt = isa::intReg(isa::kRegAt);
                finish();
                return;
              }
              default:
                err(line_no, std::string(info.mnemonic) +
                                 " needs a register operand");
            }
            if (negate) {
                if (e.hasSymbol)
                    err(line_no, "sub with symbolic immediate");
                e.addend = -e.addend;
            }
            pi.expr = e;
            pi.role = ImmRole::kImm;
            finish();
            return;
        }
        pi.rt = needReg(toks, pos, line_no);
        finish();
        return;
      case Format::kR2:
        pi.rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.rs = needReg(toks, pos, line_no);
        finish();
        return;
      case Format::kRI:
        pi.rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.expr = parseExpr(toks, pos, line_no);
        pi.role = ImmRole::kImm;
        finish();
        return;
      case Format::kSh:
        pi.rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.expr = parseExpr(toks, pos, line_no);
        pi.role = ImmRole::kShamt;
        finish();
        return;
      case Format::kLui:
        pi.rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.expr = parseExpr(toks, pos, line_no);
        pi.role = ImmRole::kImm;
        finish();
        return;
      case Format::kLS: {
        RegIndex data = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        bool is_load = info.cls == InstClass::kLoad;
        if (is_load)
            pi.rd = data;
        else
            pi.rt = data;
        // Forms: expr(base) | (base) | expr  (absolute; expands).
        Expr off = Expr::literal(0);
        bool have_expr = false;
        if (!atEnd(toks, pos) && toks[pos].kind != TokKind::kLParen) {
            off = parseExpr(toks, pos, line_no);
            have_expr = true;
        }
        if (!atEnd(toks, pos) && toks[pos].kind == TokKind::kLParen) {
            ++pos;
            pi.rs = needReg(toks, pos, line_no);
            if (atEnd(toks, pos) || toks[pos].kind != TokKind::kRParen)
                err(line_no, "expected ')'");
            ++pos;
            pi.expr = off;
            pi.role = ImmRole::kImm;
            finish();
            return;
        }
        if (!have_expr)
            err(line_no, "expected address operand");
        // Absolute form: lui $at, %hiadj; op data, %lo($at).
        ProtoInst hi;
        hi.op = Opcode::kLui;
        hi.rd = isa::intReg(isa::kRegAt);
        hi.expr = off;
        hi.role = ImmRole::kHiAdj16;
        emit(hi, line_no);
        pi.rs = isa::intReg(isa::kRegAt);
        pi.expr = off;
        pi.role = ImmRole::kLoSigned16;
        finish();
        return;
      }
      case Format::kBr2:
        pi.rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.rt = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.expr = parseExpr(toks, pos, line_no);
        pi.role = ImmRole::kBranch;
        finish();
        return;
      case Format::kBr1:
        pi.rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        pi.expr = parseExpr(toks, pos, line_no);
        pi.role = ImmRole::kBranch;
        finish();
        return;
      case Format::kJ:
        pi.expr = parseExpr(toks, pos, line_no);
        pi.role = ImmRole::kJump;
        if (op == Opcode::kJal)
            pi.rd = isa::intReg(isa::kRegRa);
        finish();
        return;
      case Format::kJr:
        pi.rs = needReg(toks, pos, line_no);
        finish();
        return;
      case Format::kJalr:
        pi.rd = needReg(toks, pos, line_no);
        if (!atEnd(toks, pos)) {
            needComma(toks, pos, line_no);
            pi.rs = needReg(toks, pos, line_no);
        } else {
            // One-operand form: jalr rs (link in $ra).
            pi.rs = pi.rd;
            pi.rd = isa::intReg(isa::kRegRa);
        }
        finish();
        return;
      case Format::kRel: {
        // Gather the full register list, then split in pairs.
        std::vector<RegIndex> regs;
        regs.push_back(needReg(toks, pos, line_no));
        while (!atEnd(toks, pos)) {
            needComma(toks, pos, line_no);
            regs.push_back(needReg(toks, pos, line_no));
        }
        for (size_t i = 0; i < regs.size(); i += 2) {
            ProtoInst r;
            r.op = Opcode::kRelease;
            r.rs = regs[i];
            r.rel2 = i + 1 < regs.size() ? regs[i + 1] : kNoReg;
            if (i + 2 >= regs.size())
                r.tags = tags;
            emit(r, line_no);
        }
        return;
      }
      case Format::kNone:
        finish();
        return;
    }
    panic("parseRealInstruction: bad format");
}

bool
Assembler::parsePseudo(const std::string &mnemonic,
                       const std::vector<Token> &toks, size_t pos,
                       TagBits tags, int line_no)
{
    const RegIndex at = isa::intReg(isa::kRegAt);
    const RegIndex zero = isa::intReg(isa::kRegZero);

    auto finish_check = [&] {
        if (!atEnd(toks, pos))
            err(line_no, "trailing operands");
    };

    if (mnemonic == "li" || mnemonic == "la") {
        RegIndex rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        Expr e = parseExpr(toks, pos, line_no);
        finish_check();
        if (mnemonic == "la" && !e.hasSymbol)
            err(line_no, "la needs a symbolic address");
        emitLoadImm(rd, e, tags, line_no);
        return true;
    }

    if (mnemonic == "move") {
        RegIndex rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        RegIndex rs = needReg(toks, pos, line_no);
        finish_check();
        ProtoInst pi;
        pi.op = Opcode::kAddu;
        pi.rd = rd;
        pi.rs = rs;
        pi.rt = zero;
        pi.tags = tags;
        emit(pi, line_no);
        return true;
    }

    if (mnemonic == "neg" || mnemonic == "not") {
        RegIndex rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        RegIndex rs = needReg(toks, pos, line_no);
        finish_check();
        ProtoInst pi;
        if (mnemonic == "neg") {
            pi.op = Opcode::kSubu;
            pi.rd = rd;
            pi.rs = zero;
            pi.rt = rs;
        } else {
            pi.op = Opcode::kNor;
            pi.rd = rd;
            pi.rs = rs;
            pi.rt = zero;
        }
        pi.tags = tags;
        emit(pi, line_no);
        return true;
    }

    if (mnemonic == "subi") {
        RegIndex rd = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        RegIndex rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        Expr e = parseExpr(toks, pos, line_no);
        finish_check();
        if (e.hasSymbol)
            err(line_no, "subi needs a literal immediate");
        e.addend = -e.addend;
        ProtoInst pi;
        pi.op = Opcode::kAddiu;
        pi.rd = rd;
        pi.rs = rs;
        pi.expr = e;
        pi.role = ImmRole::kImm;
        pi.tags = tags;
        emit(pi, line_no);
        return true;
    }

    if (mnemonic == "b") {
        Expr e = parseExpr(toks, pos, line_no);
        finish_check();
        ProtoInst pi;
        pi.op = Opcode::kBeq;
        pi.rs = zero;
        pi.rt = zero;
        pi.expr = e;
        pi.role = ImmRole::kBranch;
        pi.tags = tags;
        emit(pi, line_no);
        return true;
    }

    if (mnemonic == "beqz" || mnemonic == "bnez") {
        RegIndex rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        Expr e = parseExpr(toks, pos, line_no);
        finish_check();
        ProtoInst pi;
        pi.op = mnemonic == "beqz" ? Opcode::kBeq : Opcode::kBne;
        pi.rs = rs;
        pi.rt = zero;
        pi.expr = e;
        pi.role = ImmRole::kBranch;
        pi.tags = tags;
        emit(pi, line_no);
        return true;
    }

    if (mnemonic == "bgt" || mnemonic == "blt" || mnemonic == "bge" ||
        mnemonic == "ble") {
        RegIndex rs = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        RegIndex rt = needReg(toks, pos, line_no);
        needComma(toks, pos, line_no);
        Expr e = parseExpr(toks, pos, line_no);
        finish_check();
        ProtoInst cmp;
        cmp.op = Opcode::kSlt;
        cmp.rd = at;
        // bgt: rs > rt  <=> rt < rs   -> slt at, rt, rs; bne
        // blt: rs < rt               -> slt at, rs, rt; bne
        // bge: rs >= rt <=> !(rs<rt) -> slt at, rs, rt; beq
        // ble: rs <= rt <=> !(rt<rs) -> slt at, rt, rs; beq
        bool swap = mnemonic == "bgt" || mnemonic == "ble";
        cmp.rs = swap ? rt : rs;
        cmp.rt = swap ? rs : rt;
        emit(cmp, line_no);
        ProtoInst br;
        br.op = (mnemonic == "bgt" || mnemonic == "blt") ? Opcode::kBne
                                                         : Opcode::kBeq;
        br.rs = at;
        br.rt = zero;
        br.expr = e;
        br.role = ImmRole::kBranch;
        br.tags = tags;
        emit(br, line_no);
        return true;
    }

    return false;
}

void
Assembler::handleDirective(const std::vector<Token> &toks, int line_no)
{
    const std::string &d = toks[0].text;
    size_t pos = 1;

    auto need_ident = [&]() -> std::string {
        if (atEnd(toks, pos) || toks[pos].kind != TokKind::kIdent)
            err(line_no, d + " expects an identifier");
        return toks[pos++].text;
    };

    if (d == ".text") {
        section_ = Section::kText;
        return;
    }
    if (d == ".data") {
        section_ = Section::kData;
        return;
    }
    if (d == ".global" || d == ".globl") {
        need_ident();
        return;  // informational only
    }
    if (d == ".entry") {
        entryLabel_ = need_ident();
        return;
    }

    if (d == ".task") {
        if (!opts_.multiscalar) {
            inTask_ = true;  // still must consume until .endtask
            return;
        }
        fatalIf(inTask_, opts_.fileName, ":", line_no, ": nested .task");
        TaskDecl td;
        td.label = need_ident();
        td.lineNo = line_no;
        tasks_.push_back(std::move(td));
        inTask_ = true;
        return;
    }
    if (d == ".endtask") {
        fatalIf(!inTask_, opts_.fileName, ":", line_no,
                ": .endtask without .task");
        inTask_ = false;
        return;
    }
    if (d == ".targets") {
        if (!opts_.multiscalar)
            return;
        fatalIf(!inTask_, opts_.fileName, ":", line_no,
                ": .targets outside .task");
        TaskDecl &td = tasks_.back();
        bool first = true;
        while (!atEnd(toks, pos)) {
            if (!first)
                needComma(toks, pos, line_no);
            first = false;
            TargetDecl t;
            t.lineNo = line_no;
            std::string name = need_ident();
            if (name == "ret") {
                t.spec = TargetSpec::kReturn;
            } else {
                t.label = name;
                if (!atEnd(toks, pos) &&
                    toks[pos].kind == TokKind::kColon) {
                    ++pos;
                    std::string spec = need_ident();
                    if (spec == "loop") {
                        t.spec = TargetSpec::kLoop;
                    } else if (spec == "call") {
                        t.spec = TargetSpec::kCall;
                        if (atEnd(toks, pos) ||
                            toks[pos].kind != TokKind::kColon)
                            err(line_no, "call target needs :RETLABEL");
                        ++pos;
                        t.retLabel = need_ident();
                    } else if (spec == "norm") {
                        t.spec = TargetSpec::kNormal;
                    } else {
                        err(line_no, "bad target spec '" + spec + "'");
                    }
                }
            }
            td.targets.push_back(std::move(t));
        }
        fatalIf(td.targets.size() > kMaxTaskTargets,
                opts_.fileName, ":", line_no, ": more than ",
                kMaxTaskTargets, " task targets");
        return;
    }
    if (d == ".create") {
        if (!opts_.multiscalar)
            return;
        fatalIf(!inTask_, opts_.fileName, ":", line_no,
                ": .create outside .task");
        TaskDecl &td = tasks_.back();
        bool first = true;
        while (!atEnd(toks, pos)) {
            if (!first)
                needComma(toks, pos, line_no);
            first = false;
            if (toks[pos].kind != TokKind::kReg)
                err(line_no, ".create expects registers");
            td.createMask.set(toks[pos++].reg);
        }
        return;
    }

    // Data directives below.
    fatalIf(section_ != Section::kData && d != ".org" && d != ".align" &&
                d != ".space",
            opts_.fileName, ":", line_no, ": ", d, " outside .data");

    if (d == ".org") {
        Expr e = parseExpr(toks, pos, line_no);
        fatalIf(e.hasSymbol, opts_.fileName, ":", line_no,
                ": .org needs a literal");
        Addr target = Addr(e.addend);
        if (section_ == Section::kData) {
            fatalIf(target < kDataBase + dataImage_.size(),
                    opts_.fileName, ":", line_no, ": .org moves backwards");
            dataImage_.resize(target - kDataBase, 0);
        } else {
            fatalIf(target < textLc_, opts_.fileName, ":", line_no,
                    ": .org moves backwards");
            while (textLc_ < target) {
                ProtoInst pi;
                pi.op = Opcode::kNop;
                emit(pi, line_no);
            }
        }
        return;
    }
    if (d == ".align") {
        Expr e = parseExpr(toks, pos, line_no);
        fatalIf(e.hasSymbol || e.addend < 0 || e.addend > 12,
                opts_.fileName, ":", line_no, ": bad .align");
        if (section_ == Section::kData)
            alignData(1u << e.addend);
        return;
    }
    if (d == ".space") {
        Expr e = parseExpr(toks, pos, line_no);
        fatalIf(e.hasSymbol || e.addend < 0,
                opts_.fileName, ":", line_no, ": bad .space");
        if (section_ == Section::kData)
            dataImage_.insert(dataImage_.end(), size_t(e.addend), 0);
        return;
    }
    if (d == ".word" || d == ".half" || d == ".byte") {
        // No implicit alignment: a label bound before this directive
        // must name the data, so use .align explicitly when needed.
        unsigned size = d == ".word" ? 4 : d == ".half" ? 2 : 1;
        bool first = true;
        while (!atEnd(toks, pos)) {
            if (!first)
                needComma(toks, pos, line_no);
            first = false;
            Expr e = parseExpr(toks, pos, line_no);
            if (e.hasSymbol) {
                dataFixups_.push_back(
                    {dataImage_.size(), size, e, line_no});
                std::uint32_t zero32 = 0;
                dataBytes(&zero32, size);
            } else {
                std::uint32_t v = std::uint32_t(e.addend);
                dataBytes(&v, size);
            }
        }
        return;
    }
    if (d == ".double" || d == ".float") {
        unsigned size = d == ".double" ? 8 : 4;
        bool first = true;
        while (!atEnd(toks, pos)) {
            if (!first)
                needComma(toks, pos, line_no);
            first = false;
            bool neg = false;
            if (toks[pos].kind == TokKind::kMinus) {
                neg = true;
                ++pos;
            }
            if (atEnd(toks, pos) || toks[pos].kind != TokKind::kNumber)
                err(line_no, d + " expects numbers");
            double v = parseFloat(toks[pos++], line_no, opts_.fileName);
            if (neg)
                v = -v;
            if (size == 8) {
                dataBytes(&v, 8);
            } else {
                float f = float(v);
                dataBytes(&f, 4);
            }
        }
        return;
    }
    if (d == ".asciiz" || d == ".ascii") {
        if (atEnd(toks, pos) || toks[pos].kind != TokKind::kString)
            err(line_no, d + " expects a string");
        const std::string &s = toks[pos++].text;
        dataBytes(s.data(), s.size());
        if (d == ".asciiz")
            dataImage_.push_back(0);
        return;
    }

    err(line_no, "unknown directive '" + d + "'");
}

void
Assembler::passOne()
{
    std::istringstream in(source_);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        auto toks = tokenizeLine(line, line_no, opts_.fileName);
        if (toks.empty())
            continue;
        if (!lineEnabled(toks, line_no))
            continue;
        if (toks.empty())
            continue;

        // Leading labels: IDENT ':'.
        while (toks.size() >= 2 && toks[0].kind == TokKind::kIdent &&
               toks[1].kind == TokKind::kColon) {
            handleLabel(toks[0].text, line_no);
            toks.erase(toks.begin(), toks.begin() + 2);
        }
        if (toks.empty())
            continue;

        if (toks[0].kind == TokKind::kDirective) {
            handleDirective(toks, line_no);
            continue;
        }
        if (toks[0].kind != TokKind::kIdent)
            err(line_no, "expected instruction or directive");

        // In scalar mode a .task body may contain directives we are
        // skipping, but instructions are always assembled.
        fatalIf(section_ != Section::kText, opts_.fileName, ":", line_no,
                ": instruction outside .text");
        TagBits tags = takeTags(toks, line_no);
        const std::string &mnemonic = toks[0].text;
        if (auto op = isa::parseMnemonic(mnemonic)) {
            parseRealInstruction(*op, toks, 1, tags, line_no);
        } else if (!parsePseudo(mnemonic, toks, 1, tags, line_no)) {
            err(line_no, "unknown instruction '" + mnemonic + "'");
        }
    }
    fatalIf(inTask_, opts_.fileName, ": unterminated .task block");
}

std::int64_t
Assembler::evalExpr(const Expr &e, int line_no) const
{
    if (!e.hasSymbol)
        return e.addend;
    auto it = symbols_.find(e.symbol);
    if (it == symbols_.end())
        err(line_no, "undefined symbol '" + e.symbol + "'");
    return std::int64_t(it->second) + e.addend;
}

Addr
Assembler::labelAddr(const std::string &name, int line_no) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        err(line_no, "undefined label '" + name + "'");
    return it->second;
}

void
Assembler::passTwo(Program &prog)
{
    prog.textBase = kTextBase;
    prog.symbols = symbols_;
    prog.sourceName = opts_.fileName;

    // Finalize instructions.
    Addr pc = kTextBase;
    for (const ProtoInst &pi : protos_) {
        Instruction inst;
        inst.op = pi.op;
        inst.rd = pi.rd;
        inst.rs = pi.rs;
        inst.rt = pi.rt;
        inst.rel2 = pi.rel2;
        inst.tags = pi.tags;
        std::int64_t v = 0;
        if (pi.role != ImmRole::kNone)
            v = evalExpr(pi.expr, pi.lineNo);
        switch (pi.role) {
          case ImmRole::kNone:
            break;
          case ImmRole::kImm:
            // checkFields sees 32 bits: reject what would wrap.
            fatalIf(v != std::int32_t(v), opts_.fileName, ":", pi.lineNo,
                    ": immediate ", v, " out of range");
            inst.imm = std::int32_t(v);
            break;
          case ImmRole::kShamt:
            fatalIf(v < 0 || v > 31, opts_.fileName, ":", pi.lineNo,
                    ": shift amount out of range");
            inst.imm = std::int32_t(v);
            break;
          case ImmRole::kBranch:
          case ImmRole::kJump:
            inst.target = Addr(v);
            break;
          case ImmRole::kHi16:
            inst.imm = std::int32_t((std::uint64_t(v) >> 16) & 0xffff);
            break;
          case ImmRole::kLo16:
            inst.imm = std::int32_t(std::uint64_t(v) & 0xffff);
            break;
          case ImmRole::kHiAdj16:
            inst.imm = std::int32_t(
                ((std::uint64_t(v) + 0x8000) >> 16) & 0xffff);
            break;
          case ImmRole::kLoSigned16:
            inst.imm = std::int32_t(std::int16_t(std::uint64_t(v) &
                                                 0xffff));
            break;
        }
        isa::checkFields(inst, pc);
        inst.predecode();
        prog.code.push_back(inst);
        prog.lineNos.push_back(pi.lineNo);
        pc += kInstrBytes;
    }

    // Data fixups.
    for (const DataFixup &f : dataFixups_) {
        std::int64_t v = evalExpr(f.expr, f.lineNo);
        std::uint32_t u = std::uint32_t(v);
        std::memcpy(dataImage_.data() + f.offset, &u, f.size);
    }
    if (!dataImage_.empty())
        prog.data.push_back({kDataBase, std::move(dataImage_)});
    prog.heapStart =
        Addr((kDataBase + (prog.data.empty()
                               ? 0
                               : prog.data[0].bytes.size()) + 15) & ~15u);

    // Task descriptors.
    for (const TaskDecl &td : tasks_) {
        TaskDescriptor desc;
        desc.start = labelAddr(td.label, td.lineNo);
        fatalIf(desc.start < kTextBase || desc.start >= prog.textEnd(),
                opts_.fileName, ":", td.lineNo,
                ": task start is not in .text");
        desc.createMask = td.createMask;
        desc.lineNo = td.lineNo;
        for (const TargetDecl &t : td.targets) {
            TaskTarget tt;
            tt.spec = t.spec;
            if (t.spec != TargetSpec::kReturn)
                tt.addr = labelAddr(t.label, t.lineNo);
            if (t.spec == TargetSpec::kCall)
                tt.returnTo = labelAddr(t.retLabel, t.lineNo);
            desc.targets.push_back(tt);
        }
        fatalIf(prog.tasks.count(desc.start) > 0,
                opts_.fileName, ":", td.lineNo,
                ": duplicate task descriptor for '", td.label, "'");
        prog.tasks[desc.start] = std::move(desc);
    }

    // Entry point.
    if (!entryLabel_.empty()) {
        prog.entry = labelAddr(entryLabel_, 0);
    } else if (auto it = symbols_.find("main"); it != symbols_.end()) {
        prog.entry = it->second;
    } else {
        prog.entry = kTextBase;
    }
}

Program
Assembler::run()
{
    passOne();
    Program prog;
    passTwo(prog);
    return prog;
}

} // namespace

Program
assemble(const std::string &source, const AsmOptions &opts)
{
    Assembler assembler(source, opts);
    Program prog = assembler.run();
    if (opts.strict && opts.multiscalar) {
        const analysis::AnnotationVerifier verifier(prog);
        const analysis::AnalysisReport report = verifier.verify();
        fatalIf(report.hasErrors(),
                "strict annotation verification failed:\n",
                report.toText());
    }
    return prog;
}

} // namespace msim::assembler
