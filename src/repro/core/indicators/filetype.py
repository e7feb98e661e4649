"""Primary indicator: file type change (paper §III-A).

"Since files generally retain their file type and formatting over the
course of their existence, bulk modification of such data should be
considered suspicious."  The engine identifies the magic-number type of a
file before and after a process writes it; a changed type is one hit.

A single change is *not* treated as malicious by itself (a legitimate
format upgrade can do it); it only contributes points and sets the union
flag.
"""

from __future__ import annotations

from typing import Optional

from ...magic import EMPTY, FileType

__all__ = ["type_changed"]


def type_changed(before: Optional[FileType],
                 after: Optional[FileType]) -> bool:
    """True when a meaningful type transition occurred.

    Transitions involving empty files are ignored: a newly created file has
    no previous type to change *from*, and truncation to zero bytes is a
    deletion-like event handled elsewhere.  Compared by value, not
    identity: a baseline restored from a checkpoint carries an equal but
    distinct ``FileType``.
    """
    if before is None or after is None:
        return False
    if before == EMPTY or after == EMPTY:
        return False
    return before.name != after.name
