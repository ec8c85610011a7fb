"""The classified advertisement (classad) language — S1–S4 in DESIGN.md.

This package implements the semi-structured data model of Section 3.1 of
Raman, Livny & Solomon (HPDC'98): ads as attribute→expression mappings, a
C-like expression language with lists and nested ads, three-valued logic
over ``undefined``/``error``, and `self`/`other` match environments.

Typical use::

    from repro.classads import ClassAd, parse, evaluate

    machine = ClassAd.parse('[ Type = "Machine"; Memory = 64; '
                            'Constraint = other.Owner != "riffraff" ]')
    job = ClassAd.parse('[ Type = "Job"; Owner = "raman"; '
                        'Constraint = other.Memory >= 32 ]')
    machine.evaluate("Constraint", other=job)   # -> True
"""

from .ast import (
    AttributeRef,
    BinaryOp,
    Conditional,
    Expr,
    FunctionCall,
    ListExpr,
    Literal,
    RecordExpr,
    Select,
    Subscript,
    UnaryOp,
    external_references,
    walk,
)
from .classad import ClassAd
from .compile import (
    CompiledExpr,
    compilation_enabled,
    compile_expr,
    evaluate,
    evaluate_attribute,
    set_compilation,
)
from .errors import ClassAdException, EvaluationLimitExceeded, LexerError, ParseError
from .parser import parse, parse_record
from .fingerprint import ad_wire_size, fingerprint, payload_equal, values_equal
from .serialize import SerializationError, dumps, from_json_obj, loads, to_json_obj
from .unparse import unparse, unparse_classad
from .values import (
    ERROR,
    UNDEFINED,
    ErrorValue,
    UndefinedType,
    is_classad,
    is_error,
    is_false,
    is_true,
    is_undefined,
    rank_value,
    values_identical,
)

__all__ = [
    "AttributeRef",
    "BinaryOp",
    "ClassAd",
    "ClassAdException",
    "CompiledExpr",
    "Conditional",
    "ERROR",
    "ErrorValue",
    "EvaluationLimitExceeded",
    "Expr",
    "FunctionCall",
    "LexerError",
    "ListExpr",
    "Literal",
    "ParseError",
    "RecordExpr",
    "Select",
    "Subscript",
    "UNDEFINED",
    "UnaryOp",
    "UndefinedType",
    "compilation_enabled",
    "compile_expr",
    "evaluate",
    "evaluate_attribute",
    "set_compilation",
    "external_references",
    "is_classad",
    "is_error",
    "is_false",
    "is_true",
    "is_undefined",
    "SerializationError",
    "ad_wire_size",
    "dumps",
    "fingerprint",
    "from_json_obj",
    "payload_equal",
    "loads",
    "parse",
    "parse_record",
    "to_json_obj",
    "rank_value",
    "unparse",
    "unparse_classad",
    "values_equal",
    "values_identical",
    "walk",
]
