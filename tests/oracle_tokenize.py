"""Reference tokenizer: bbsolve.eqparse._tokenize as it was before its
operator scan was rewritten, kept unchanged so a differential test can
compare the two token for token and error for error.
"""

from bbsolve.errors import EquationSyntaxError

_PUNCT = ("**", "+", "-", "*", "/", "^", "(", ")", "=", ";", ":", "'")


def tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(("NUM", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(("OP", "^" if p == "**" else p, i))
                i += len(p)
                break
        else:
            raise EquationSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("END", "", n))
    return toks
